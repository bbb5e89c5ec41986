// Link-time wrappers around the zomp_* ABI (see layers.h).
#include "layers.h"

#include <atomic>
#include <climits>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runtime/abi.h"

extern "C" {
void __real_zomp_fork_call(const zomp_ident_t*, zomp_microtask_t, std::int32_t,
                           void**);
void __real_zomp_fork_call_if(const zomp_ident_t*, zomp_microtask_t,
                              std::int32_t, void**, std::int32_t);
std::int32_t __real_zomp_barrier(const zomp_ident_t*, std::int32_t);
std::int32_t __real_zomp_single(const zomp_ident_t*, std::int32_t);
void __real_zomp_end_single(const zomp_ident_t*, std::int32_t);
void __real_zomp_for_static_init(const zomp_ident_t*, std::int32_t,
                                 std::int64_t, std::int64_t, std::int64_t,
                                 std::int64_t, std::int64_t*, std::int64_t*,
                                 std::int64_t*, std::int32_t*);
void __real_zomp_for_static_fini(const zomp_ident_t*, std::int32_t);
void __real_zomp_static_range(const zomp_ident_t*, std::int32_t, std::int64_t,
                              std::int64_t, std::int64_t*, std::int64_t*,
                              std::int32_t*);
std::int32_t __real_zomp_dispatch_next(const zomp_ident_t*, std::int32_t,
                                       std::int64_t*, std::int64_t*,
                                       std::int32_t*);
std::int32_t __real_zomp_reduce(const zomp_ident_t*, std::int32_t, void*,
                                std::int64_t, zomp_reduce_fn_t);
void __real_zomp_atomic_add_f64(double*, double);
void __real_zomp_atomic_add_i64(std::int64_t*, std::int64_t);
void __real_zomp_task(const zomp_ident_t*, std::int32_t, void (*)(void*),
                      const void*, std::int64_t);
void __real_zomp_task_with_deps(const zomp_ident_t*, std::int32_t,
                                void (*)(void*), const void*, std::int64_t,
                                const zomp_depend_t*, std::int32_t,
                                std::int32_t, std::int32_t);
}

namespace perfbench::layers {
namespace {

constexpr int kMaxSlots = 256;
constexpr int kMaxForkArgs = 64;

struct alignas(64) Slot {
  std::int64_t fork_calls, barrier_calls, single_calls, static_inits,
      dispatch_calls, dispatch_empty, dispatch_iters, reduce_calls,
      atomic_calls, spawn_calls, steal_success;
  std::int64_t region_ns, barrier_ns, single_body_ns, static_body_ns,
      dispatch_ns, reduce_ns, atomic_sampled_ns, spawn_ns, imbalance_ns;
  std::int64_t single_open, static_open;  // span starts, 0 = none open
};

Slot g_slots[kMaxSlots];
// Cost of one now_ns() pair, subtracted from each sampled atomic so the
// clock reads do not count as atomic time (install() measures it).
std::int64_t g_clock_ns = 0;
std::atomic<int> g_nslots{0};
thread_local Slot* tl_slot = nullptr;

// Busy time (microtask time minus barrier wait) of each member of the
// region in flight, indexed by team tid; read by the master after the join.
// One region at a time: none of the four kernels nests parallel regions.
std::int64_t g_busy_ns[kMaxSlots];
std::atomic<int> g_region_members{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Slot& slot() {
  if (tl_slot == nullptr) {
    const int i = g_nslots.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSlots) {
      std::fprintf(stderr, "perfbench: more than %d threads\n", kMaxSlots);
      std::abort();
    }
    tl_slot = &g_slots[i];
  }
  return *tl_slot;
}

void add_sample(Slot& s, std::int64_t ns) {
  s.atomic_sampled_ns += ns > g_clock_ns ? ns - g_clock_ns : 0;
}

void close_static(Slot& s, std::int64_t t) {
  if (s.static_open != 0) {
    s.static_body_ns += t - s.static_open;
    s.static_open = 0;
  }
}

// Runs in every member: args[0] carries the kernel's microtask.
void trampoline(std::int32_t gtid, std::int32_t tid, void** args) {
  Slot& s = slot();
  const std::int64_t barrier0 = s.barrier_ns;
  const std::int64_t t0 = now_ns();
  reinterpret_cast<zomp_microtask_t>(args[0])(gtid, tid, args + 1);
  const std::int64_t t1 = now_ns();
  close_static(s, t1);
  if (tid >= 0 && tid < kMaxSlots) {
    g_busy_ns[tid] = (t1 - t0) - (s.barrier_ns - barrier0);
    g_region_members.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename Fork>
void traced_fork(zomp_microtask_t fn, std::int32_t argc, void** args,
                 Fork&& fork) {
  if (argc + 1 > kMaxForkArgs) {
    std::fprintf(stderr, "perfbench: fork with %d args\n", argc);
    std::abort();
  }
  Slot& s = slot();
  ++s.fork_calls;
  void* shifted[kMaxForkArgs];
  shifted[0] = reinterpret_cast<void*>(fn);
  if (argc > 0) std::memcpy(shifted + 1, args, sizeof(void*) * argc);
  g_region_members.store(0, std::memory_order_relaxed);
  const std::int64_t t0 = now_ns();
  fork(shifted, argc + 1);
  s.region_ns += now_ns() - t0;
  const int n = g_region_members.load(std::memory_order_relaxed);
  if (n > 0) {
    std::int64_t lo = g_busy_ns[0];
    std::int64_t hi = g_busy_ns[0];
    for (int i = 1; i < n; ++i) {
      lo = g_busy_ns[i] < lo ? g_busy_ns[i] : lo;
      hi = g_busy_ns[i] > hi ? g_busy_ns[i] : hi;
    }
    s.imbalance_ns += hi - lo;
  }
}

void on_steal_success(std::int32_t, std::int32_t, std::int32_t, std::int64_t,
                      std::int64_t, void*) {
  ++slot().steal_success;
}

}  // namespace

void install() {
  std::int64_t best = INT64_MAX;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t0 = now_ns();
    const std::int64_t d = now_ns() - t0;
    best = d < best ? d : best;
  }
  g_clock_ns = best;
  if (zomp_set_callback(ZOMP_EV_STEAL_SUCCESS, &on_steal_success) != 1) {
    std::fprintf(stderr, "perfbench: cannot install the steal callback\n");
    std::abort();
  }
}

void reset() {
  const int n = g_nslots.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) g_slots[i] = Slot{};
}

Totals collect() {
  Totals t;
  const int n = g_nslots.load(std::memory_order_relaxed);
  auto sec = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  for (int i = 0; i < n; ++i) {
    const Slot& s = g_slots[i];
    t.fork_calls += s.fork_calls;
    t.region_s += sec(s.region_ns);
    t.barrier_calls += s.barrier_calls;
    t.barrier_wait_s += sec(s.barrier_ns);
    t.single_calls += s.single_calls;
    t.single_body_s += sec(s.single_body_ns);
    t.imbalance_s += sec(s.imbalance_ns);
    t.static_inits += s.static_inits;
    t.static_body_s += sec(s.static_body_ns);
    t.dispatch_calls += s.dispatch_calls;
    t.dispatch_empty += s.dispatch_empty;
    t.dispatch_iters += s.dispatch_iters;
    t.dispatch_s += sec(s.dispatch_ns);
    t.reduce_calls += s.reduce_calls;
    t.reduce_s += sec(s.reduce_ns);
    t.atomic_calls += s.atomic_calls;
    t.atomic_s += sec(s.atomic_sampled_ns * kAtomicSample);
    t.spawn_calls += s.spawn_calls;
    t.spawn_s += sec(s.spawn_ns);
    t.steal_success += s.steal_success;
  }
  return t;
}

}  // namespace perfbench::layers

using perfbench::layers::now_ns;
using perfbench::layers::slot;
using perfbench::layers::Slot;

extern "C" {

void __wrap_zomp_fork_call(const zomp_ident_t* loc, zomp_microtask_t fn,
                           std::int32_t argc, void** args) {
  perfbench::layers::traced_fork(fn, argc, args, [&](void** a, std::int32_t n) {
    __real_zomp_fork_call(loc, &perfbench::layers::trampoline, n, a);
  });
}

void __wrap_zomp_fork_call_if(const zomp_ident_t* loc, zomp_microtask_t fn,
                              std::int32_t argc, void** args,
                              std::int32_t cond) {
  perfbench::layers::traced_fork(fn, argc, args, [&](void** a, std::int32_t n) {
    __real_zomp_fork_call_if(loc, &perfbench::layers::trampoline, n, a, cond);
  });
}

std::int32_t __wrap_zomp_barrier(const zomp_ident_t* loc, std::int32_t gtid) {
  Slot& s = slot();
  ++s.barrier_calls;
  const std::int64_t t0 = now_ns();
  perfbench::layers::close_static(s, t0);
  const std::int32_t r = __real_zomp_barrier(loc, gtid);
  s.barrier_ns += now_ns() - t0;
  return r;
}

std::int32_t __wrap_zomp_single(const zomp_ident_t* loc, std::int32_t gtid) {
  Slot& s = slot();
  ++s.single_calls;
  const std::int32_t won = __real_zomp_single(loc, gtid);
  if (won != 0) s.single_open = now_ns();
  return won;
}

void __wrap_zomp_end_single(const zomp_ident_t* loc, std::int32_t gtid) {
  Slot& s = slot();
  if (s.single_open != 0) {
    s.single_body_ns += now_ns() - s.single_open;
    s.single_open = 0;
  }
  __real_zomp_end_single(loc, gtid);
}

void __wrap_zomp_for_static_init(const zomp_ident_t* loc, std::int32_t gtid,
                                 std::int64_t chunk, std::int64_t lo,
                                 std::int64_t hi, std::int64_t step,
                                 std::int64_t* plo, std::int64_t* phi,
                                 std::int64_t* pstride, std::int32_t* plast) {
  __real_zomp_for_static_init(loc, gtid, chunk, lo, hi, step, plo, phi,
                              pstride, plast);
  Slot& s = slot();
  ++s.static_inits;
  s.static_open = now_ns();
}

void __wrap_zomp_for_static_fini(const zomp_ident_t* loc, std::int32_t gtid) {
  perfbench::layers::close_static(slot(), now_ns());
  __real_zomp_for_static_fini(loc, gtid);
}

void __wrap_zomp_static_range(const zomp_ident_t* loc, std::int32_t gtid,
                              std::int64_t lo, std::int64_t hi,
                              std::int64_t* plo, std::int64_t* phi,
                              std::int32_t* plast) {
  __real_zomp_static_range(loc, gtid, lo, hi, plo, phi, plast);
  Slot& s = slot();
  ++s.static_inits;
  s.static_open = now_ns();
}

std::int32_t __wrap_zomp_dispatch_next(const zomp_ident_t* loc,
                                       std::int32_t gtid, std::int64_t* plo,
                                       std::int64_t* phi,
                                       std::int32_t* plast) {
  Slot& s = slot();
  ++s.dispatch_calls;
  const std::int64_t t0 = now_ns();
  const std::int32_t got = __real_zomp_dispatch_next(loc, gtid, plo, phi, plast);
  s.dispatch_ns += now_ns() - t0;
  if (got == 0) {
    ++s.dispatch_empty;
  } else {
    s.dispatch_iters += *phi - *plo;  // step-1 loops: one per index
  }
  return got;
}

std::int32_t __wrap_zomp_reduce(const zomp_ident_t* loc, std::int32_t gtid,
                                void* data, std::int64_t size,
                                zomp_reduce_fn_t fn) {
  Slot& s = slot();
  ++s.reduce_calls;
  const std::int64_t t0 = now_ns();
  perfbench::layers::close_static(s, t0);
  const std::int32_t r = __real_zomp_reduce(loc, gtid, data, size, fn);
  s.reduce_ns += now_ns() - t0;
  return r;
}

void __wrap_zomp_atomic_add_f64(double* addr, double value) {
  Slot& s = slot();
  if (++s.atomic_calls % perfbench::layers::kAtomicSample != 0) {
    __real_zomp_atomic_add_f64(addr, value);
    return;
  }
  const std::int64_t t0 = now_ns();
  __real_zomp_atomic_add_f64(addr, value);
  perfbench::layers::add_sample(s, now_ns() - t0);
}

void __wrap_zomp_atomic_add_i64(std::int64_t* addr, std::int64_t value) {
  Slot& s = slot();
  if (++s.atomic_calls % perfbench::layers::kAtomicSample != 0) {
    __real_zomp_atomic_add_i64(addr, value);
    return;
  }
  const std::int64_t t0 = now_ns();
  __real_zomp_atomic_add_i64(addr, value);
  perfbench::layers::add_sample(s, now_ns() - t0);
}

void __wrap_zomp_task(const zomp_ident_t* loc, std::int32_t gtid,
                      void (*fn)(void*), const void* arg,
                      std::int64_t arg_size) {
  Slot& s = slot();
  ++s.spawn_calls;
  const std::int64_t t0 = now_ns();
  __real_zomp_task(loc, gtid, fn, arg, arg_size);
  s.spawn_ns += now_ns() - t0;
}

void __wrap_zomp_task_with_deps(const zomp_ident_t* loc, std::int32_t gtid,
                                void (*fn)(void*), const void* arg,
                                std::int64_t arg_size,
                                const zomp_depend_t* deps, std::int32_t ndeps,
                                std::int32_t flags, std::int32_t priority) {
  Slot& s = slot();
  ++s.spawn_calls;
  const std::int64_t t0 = now_ns();
  __real_zomp_task_with_deps(loc, gtid, fn, arg, arg_size, deps, ndeps, flags,
                             priority);
  s.spawn_ns += now_ns() - t0;
}

}  // extern "C"
