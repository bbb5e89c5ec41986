// Per-layer counters of the traced benchmark binary.
//
// layers.cpp defines `__wrap_zomp_*` for the ABI entry points the generated
// kernels call; the traced binary is linked with `-Wl,--wrap=zomp_<fn>` so
// every cross-object call from the generated code lands there first, is
// counted and timed from outside the runtime, and continues to the real
// entry point. Neither src/ nor the generated code is changed. Each thread
// writes only its own cache-line-aligned slot; `collect` reads the slots on
// the master between kernel calls, when every member is parked in the pool.
#pragma once

#include <cstdint>

namespace perfbench::layers {

/// zomp_atomic_* calls are all counted but only one in kAtomicSample is
/// timed: timing every call inflated ep-S by about half.
inline constexpr std::int64_t kAtomicSample = 64;

struct Totals {
  std::int64_t fork_calls = 0;
  double region_s = 0;        ///< master's wall time inside zomp_fork_call*
  std::int64_t barrier_calls = 0;
  double barrier_wait_s = 0;  ///< summed over members
  std::int64_t single_calls = 0;
  double single_body_s = 0;   ///< winning zomp_single -> zomp_end_single
  double imbalance_s = 0;     ///< per region max - min member busy time
  std::int64_t static_inits = 0;
  double static_body_s = 0;   ///< static init -> fini (or next barrier)
  std::int64_t dispatch_calls = 0;
  std::int64_t dispatch_empty = 0;
  std::int64_t dispatch_iters = 0;
  double dispatch_s = 0;
  std::int64_t reduce_calls = 0;
  double reduce_s = 0;
  std::int64_t atomic_calls = 0;
  double atomic_s = 0;        ///< sampled time * kAtomicSample
  std::int64_t spawn_calls = 0;
  double spawn_s = 0;
  std::int64_t steal_success = 0;  ///< ZOMP_EV_STEAL_SUCCESS callbacks
};

/// Installs the steal-success tool callback. Call once before any kernel.
void install();
/// Zeroes every slot. Call on the master outside any region.
void reset();
/// Sums every slot. Call on the master outside any region.
Totals collect();

}  // namespace perfbench::layers
