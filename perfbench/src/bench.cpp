// zomp benchmark measuring binary (one workload per process).
//
//   zomp_bench --workload W --seed N --threads T --mode setup
//       input generation + the first fork at width T; prints {"setup_s"}.
//   zomp_bench --workload W --seed N --threads T --mode run --seconds S
//       closed loops, each call checked by the oracle: the transpiled
//       kernel for 0.6 S, the hand-written reference for 0.3 S, and the
//       in-process transpile (compile_source -O1 + emit_cpp, compared byte
//       for byte with the build-time file, on all W members at once) for
//       0.1 S. Prints raw samples.
//   zomp_bench ... --mode kernel --seconds S
//       the kernel loop alone for S (the untraced side of trace.overhead).
//   zomp_bench_traced ... --mode trace --seconds S
//       the kernel loop only, with the per-layer counters of layers.cpp
//       read around every call. Prints per-call medians and the counts that
//       must repeat exactly.
//
// perfbench/run.py turns these lines into the benchmark's result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cg_mz.h"
#include "codegen/codegen.h"
#include "core/pipeline.h"
#include "ep_mz.h"
#include "mandel_mz.h"
#include "npb/fortran_iface.h"
#include "runtime/abi.h"
#include "runtime/api.h"
#include "runtime/hl.h"
#include "taskgraph_mz.h"
#include "workloads.h"
#if BENCH_TRACED
#include "layers.h"
#endif

namespace {

using namespace perfbench;

template <typename T>
mz::Slice<T> slice_of(std::vector<T>& v) {
  return mz::Slice<T>{v.data(), static_cast<std::int64_t>(v.size())};
}

[[noreturn]] void die(const char* msg) {
  std::fprintf(stderr, "zomp_bench: %s\n", msg);
  std::exit(2);
}

void noop_microtask(std::int32_t, std::int32_t, void**) {}

/// Forks an empty region exactly as generated code does (no num_threads
/// clause, team size from the nthreads ICV), so it hits the kernels' hot
/// team. The first such fork creates the pool.
void fork_empty() {
  static constexpr zomp_ident_t loc = {"perfbench", "parallel", 0};
  zomp_fork_call(&loc, &noop_microtask, 0, nullptr);
}

/// The workload's buffers and its two timed entry points.
struct Runner {
  const Spec& spec;
  Inputs in;
  int threads;
  std::vector<double> x, z, r, p, q, rnorm;  // cg
  std::vector<double> ep_q, ep_res;          // ep
  std::vector<std::int64_t> mres;            // mandel
  std::vector<std::int64_t> wx;              // wavefront

  Runner(const Spec& s, std::uint64_t seed, int t)
      : spec(s), in(make_inputs(s, seed)), threads(t) {
    const auto n = static_cast<std::size_t>(in.cg.n);
    for (auto* v : {&x, &z, &r, &p, &q}) v->assign(n, 0.0);
    rnorm.assign(1, 0.0);
    ep_q.assign(10, 0.0);
    ep_res.assign(3, 0.0);
    mres.assign(2, 0);
    wx.assign(in.wave_b.size(), 0);
  }

  std::vector<double> kernel() {
    switch (spec.kind) {
      case Kind::kCg: {
        const double zeta = mzgen_cg_mz::cg_run(
            slice_of(in.cg.rowstr), slice_of(in.cg.colidx),
            slice_of(in.cg.values), slice_of(x), slice_of(z), slice_of(r),
            slice_of(p), slice_of(q), kCgNiter, kCgShift, slice_of(rnorm));
        return {zeta, rnorm[0]};
      }
      case Kind::kEp: {
        mzgen_ep_mz::ep_run(kEpM, slice_of(ep_q), slice_of(ep_res));
        std::vector<double> out{ep_res[0], ep_res[1], ep_res[2]};
        out.insert(out.end(), ep_q.begin(), ep_q.end());
        return out;
      }
      case Kind::kMandel:
        mzgen_mandel_mz::mandel_run(in.mandel.width, in.mandel.height,
                                    in.mandel.max_iter, slice_of(mres));
        return {static_cast<double>(mres[0]), static_cast<double>(mres[1])};
      case Kind::kWavefront: {
        const std::int64_t sum = mzgen_taskgraph_mz::wavefront_run(
            kWaveNb, kWaveBs, slice_of(in.wave_b), slice_of(wx));
        return {static_cast<double>(sum)};
      }
    }
    return {};
  }

  /// The hand-written reference Table 1 times (CG and EP through the
  /// Fortran-ABI shim); the wavefront's is a zomp::task_depend twin.
  std::vector<double> reference() {
    const std::int64_t nth = threads;
    switch (spec.kind) {
      case Kind::kCg: {
        const std::int64_t n = in.cg.n;
        const std::int64_t niter = kCgNiter;
        double zeta = 0.0;
        double rn = 0.0;
        cg_solve_(&n, in.cg.rowstr.data(), in.cg.colidx.data(),
                  in.cg.values.data(), &niter, &kCgShift, &nth, &zeta, &rn);
        return {zeta, rn};
      }
      case Kind::kEp: {
        const std::int64_t m = kEpM;
        double sx = 0.0;
        double sy = 0.0;
        std::int64_t accepted = 0;
        ep_kernel_(&m, &nth, &sx, &sy, &accepted);
        return {sx, sy, static_cast<double>(accepted)};
      }
      case Kind::kMandel: {
        const auto res = zomp::npb::mandel_parallel(in.mandel, threads, 1, 1);
        return {static_cast<double>(res.inside),
                static_cast<double>(res.iter_checksum)};
      }
      case Kind::kWavefront:
        return {static_cast<double>(wavefront_reference())};
    }
    return {};
  }

  std::int64_t wavefront_reference() {
    std::vector<std::int64_t>& xs = wx;
    xs = in.wave_b;
    const std::int64_t bs = kWaveBs;
    zomp::ParallelOptions par;
    par.num_threads = threads;
    zomp::parallel(
        [&] {
          zomp::single([&] {
            for (std::int64_t k = 0; k < kWaveNb; ++k) {
              zomp::task_depend({zomp::dep_inout(&xs[k * bs])}, [&xs, k, bs] {
                for (std::int64_t i = k * bs; i < (k + 1) * bs; ++i) {
                  std::int64_t s = 0;
                  for (std::int64_t j = k * bs; j < i; ++j) s += wave_l(i, j) * xs[j];
                  xs[i] -= s;
                }
              });
              for (std::int64_t jb = k + 1; jb < kWaveNb; ++jb) {
                zomp::task_depend(
                    {zomp::dep_in(&xs[k * bs]), zomp::dep_inout(&xs[jb * bs])},
                    [&xs, k, jb, bs] {
                      for (std::int64_t i = jb * bs; i < (jb + 1) * bs; ++i) {
                        std::int64_t s = 0;
                        for (std::int64_t t = k * bs; t < (k + 1) * bs; ++t) {
                          s += wave_l(i, t) * xs[t];
                        }
                        xs[i] -= s;
                      }
                    });
              }
            }
          });
        },
        par);
    return wave_checksum(xs);
  }
};

struct Transpiler {
  std::string source;
  std::string generated;
  std::string module;

  explicit Transpiler(const Spec& spec)
      : source(read_file(std::string(ZOMP_SOURCE_DIR) + "/src/npb/kernels/" +
                         spec.kernel + ".mz")),
        generated(read_file(std::string(ZOMP_GEN_DIR) + "/" + spec.kernel +
                            "_mz.cpp")),
        module(std::string(spec.kernel) + "_mz") {}

  static std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) die(("cannot read " + path).c_str());
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
  }

  struct Pass {
    double compile_s = 0;
    double emit_s = 0;
    bool same = false;
    int outlined = 0;
    int runtime_calls = 0;
  };

  /// 1 when compile + emit reproduce the build-time file byte for byte.
  double same() const { return run(false).same ? 1.0 : 0.0; }

  /// What mzc does for the build: compile at -O1, emit C++.
  Pass run(bool count_calls = true) const {
    Pass pass;
    zomp::core::CompileOptions opts;
    opts.module_name = module;
    opts.opt_level = 1;
    const double t0 = now_s();
    auto result = zomp::core::compile_source(source, opts);
    const double t1 = now_s();
    if (!result.ok) return pass;
    const std::string text = zomp::codegen::emit_cpp(*result.module);
    const double t2 = now_s();
    pass.compile_s = t1 - t0;
    pass.emit_s = t2 - t1;
    pass.same = text == generated;
    pass.outlined = result.stats.regions_outlined + result.stats.tasks_outlined;
    if (!count_calls) return pass;
    static const std::regex call(R"(\bzomp_\w+\()");
    pass.runtime_calls = static_cast<int>(std::distance(
        std::sregex_iterator(text.begin(), text.end(), call),
        std::sregex_iterator()));
    return pass;
  }
};

struct Args {
  std::string workload, mode;
  std::uint64_t seed = 0;
  int threads = 0;
  double seconds = 0;

  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const char* v = argv[i + 1];
      if (k == "--workload") workload = v;
      else if (k == "--mode") mode = v;
      else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
      else if (k == "--threads") threads = std::atoi(v);
      else if (k == "--seconds") seconds = std::atof(v);
      else die(("unknown flag " + k).c_str());
    }
    if (threads < 1) die("--threads must be >= 1");
  }
};

/// Minimal JSON object writer for the one line each mode prints.
class Json {
 public:
  Json& num(const char* key, double v) {
    field(key);
    std::snprintf(buf_, sizeof buf_, "%.17g", v);
    out_ += buf_;
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    field(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    field(key);
    out_ += '"' + v + '"';
    return *this;
  }
  Json& list(const char* key, const std::vector<double>& v) {
    field(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf_, sizeof buf_, "%s%.17g", i ? "," : "", v[i]);
      out_ += buf_;
    }
    out_ += ']';
    return *this;
  }
  void print() { std::printf("%s}\n", out_.c_str()); }

 private:
  void field(const char* key) {
    out_ += out_.size() > 1 ? ",\"" : "\"";
    out_ += key;
    out_ += "\":";
  }
  std::string out_ = "{";
  char buf_[64];
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// One closed loop of the run: a checked entry point and its share of the
/// measured window.
struct Loop {
  std::function<std::vector<double>()> fn;
  Expect expect;
  double share;
  /// Run `fn` on every member of a W-wide region at once (single-threaded
  /// work: pools samples from every CPU, whose speeds drift independently).
  bool on_every_cpu = false;
  std::vector<double> samples;
  std::vector<double> last;
};

void report_mismatch(const Expect& expect, const std::vector<double>& got) {
  std::fprintf(stderr, "zomp_bench: oracle rejected an output:");
  for (std::size_t i = 0; i < got.size() && i < expect.want.size(); ++i) {
    std::fprintf(stderr, " [%zu] got %.17g want %.17g", i, got[i],
                 expect.want[i]);
  }
  std::fprintf(stderr, "\n");
}

/// Calls `loop.fn` until `budget` seconds have passed (at least once),
/// checking every output; `timed` false makes the calls warm-up only.
void timed_loop(double budget, Loop& loop, bool timed, int& attempted,
                int& failed) {
  const double end = now_s() + budget;
  auto run = [&](std::vector<double>& samples, std::vector<double>& last,
                 int& tries, int& fails) {
    do {
      const double t0 = now_s();
      std::vector<double> out = loop.fn();
      if (timed) samples.push_back(now_s() - t0);
      ++tries;
      if (!check(loop.expect, out)) {
        if (fails++ < 5) report_mismatch(loop.expect, out);
      }
      last = std::move(out);
    } while (now_s() < end);
  };
  if (!loop.on_every_cpu) {
    run(loop.samples, loop.last, attempted, failed);
    return;
  }
  zomp::parallel([&] {
    std::vector<double> samples, last;
    int tries = 0;
    int fails = 0;
    run(samples, last, tries, fails);
    zomp::critical([&] {
      loop.samples.insert(loop.samples.end(), samples.begin(), samples.end());
      loop.last = std::move(last);
      attempted += tries;
      failed += fails;
    });
  });
}

int mode_setup(const Spec& spec, const Args& a) {
  const double t0 = now_s();
  Runner runner(spec, a.seed, a.threads);
  zomp::set_num_threads(a.threads);
  fork_empty();
  const double setup = now_s() - t0;
  Json().num("setup_s", setup).num("threads", zomp::max_threads()).print();
  return 0;
}

int mode_run(const Spec& spec, const Args& a) {
  const double t0 = now_s();
  Runner runner(spec, a.seed, a.threads);
  zomp::set_num_threads(a.threads);
  fork_empty();
  const double setup = now_s() - t0;

  const double s0 = now_s();
  const std::vector<double> serial = run_serial(spec, runner.in);
  const double serial_s = now_s() - s0;
  const Expect kexp = kernel_expect(spec, serial);
  const Expect rexp = ref_expect(spec, serial);

  const Transpiler tp(spec);
  std::vector<Loop> loops;
  loops.push_back({[&] { return runner.kernel(); }, kexp, 0.6, false, {}, {}});
  if (a.mode == "kernel") {
    loops[0].share = 1.0;
  } else {
    loops.push_back(
        {[&] { return runner.reference(); }, rexp, 0.3, false, {}, {}});
    loops.push_back({[&] { return std::vector<double>{tp.same()}; },
                     Expect{{1.0}, {0.0}}, 0.10, true, {}, {}});
  }
  int attempted = 0;
  int failed = 0;
  for (Loop& loop : loops) timed_loop(0, loop, false, attempted, failed);
  // The loops take turns in blocks, so each one samples the whole window:
  // the host's speed drifts on a scale of seconds.
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (Loop& loop : loops) {
      timed_loop(loop.share * a.seconds / kRounds, loop, true, attempted,
                 failed);
    }
  }
  bool rejects = true;
  for (const Loop& loop : loops) {
    rejects = rejects && oracle_rejects_corruption(loop.expect, loop.last);
  }
  const std::vector<double> none;
  Json()
      .num("setup_s", setup)
      .num("serial_s", serial_s)
      .list("kernel_s", loops[0].samples)
      .list("ref_s", loops.size() > 1 ? loops[1].samples : none)
      .list("transpile_s", loops.size() > 2 ? loops[2].samples : none)
      .num("peak_rss_mb", peak_rss_mb())
      .num("attempted", attempted)
      .num("failed", failed)
      .boolean("oracle_rejects_corruption", rejects)
      .num("threads", zomp::max_threads())
      .str("compiler", BENCH_COMPILER)
      .str("build_type", BENCH_BUILD_TYPE)
      .boolean("seed_used", spec.seeded)
      .print();
  return 0;
}

#if BENCH_TRACED
zomp::TeamStats probe_team_stats() {
  // Read on member 0 at the entry of an empty region forked like the
  // kernel's: the hot team is quiescent there, as team_stats requires.
  zomp::TeamStats stats;
  void* args[1] = {&stats};
  static constexpr zomp_ident_t loc = {"perfbench", "parallel", 0};
  zomp_fork_call(
      &loc,
      [](std::int32_t, std::int32_t tid, void** a) {
        if (tid == 0) *static_cast<zomp::TeamStats*>(a[0]) = zomp::team_stats();
      },
      1, args);
  return stats;
}

int mode_trace(const Spec& spec, const Args& a) {
  Runner runner(spec, a.seed, a.threads);
  zomp::set_num_threads(a.threads);
  fork_empty();
  layers::install();

  const double s0 = now_s();
  const std::vector<double> serial = run_serial(spec, runner.in);
  const double serial_s = now_s() - s0;
  const Expect kexp = kernel_expect(spec, serial);

  int attempted = 0;
  int failed = 0;
  Loop warm{[&] { return runner.kernel(); }, kexp, 0, false, {}, {}};
  timed_loop(0, warm, false, attempted, failed);
  std::vector<double> last = warm.last;

  // Per-call values by metric name (first call fixes the order).
  std::vector<const char*> names;
  std::vector<std::vector<double>> per_call;
  std::vector<double> det_first;
  bool det_stable = true;
  bool stats_monotonic = true;
  zomp::TeamStats before = probe_team_stats();
  const double end = now_s() + a.seconds;
  do {
    layers::reset();
    const double t0 = now_s();
    std::vector<double> out = runner.kernel();
    const double wall = now_s() - t0;
    const layers::Totals t = layers::collect();
    const zomp::TeamStats after = probe_team_stats();
    ++attempted;
    if (!check(kexp, out)) ++failed;
    last = std::move(out);

    const auto executed =
        static_cast<double>(after.tasks_executed - before.tasks_executed);
    const auto steals =
        static_cast<double>(after.steal_attempts - before.steal_attempts);
    stats_monotonic = stats_monotonic && executed >= 0 && steals >= 0;
    before = after;

    // Counts fixed by the kernel and the team size alone.
    const std::vector<double> det = {
        double(t.fork_calls),   double(t.barrier_calls), double(t.single_calls),
        double(t.static_inits), double(t.spawn_calls),   double(t.atomic_calls)};
    if (det_first.empty()) det_first = det;
    det_stable = det_stable && det == det_first;

    const double claims = double(t.dispatch_calls - t.dispatch_empty);
    const std::pair<const char*, double> row[] = {
        {"kernel_s", wall},
        {"fork_calls", double(t.fork_calls)},
        {"region_s", t.region_s},
        {"barrier_calls", double(t.barrier_calls)},
        {"barrier_wait_s", t.barrier_wait_s},
        {"single_calls", double(t.single_calls)},
        {"single_body_s", t.single_body_s},
        {"imbalance_s", t.imbalance_s},
        {"static_inits", double(t.static_inits)},
        {"static_body_s", t.static_body_s},
        {"dispatch_calls", double(t.dispatch_calls)},
        {"dispatch_s", t.dispatch_s},
        {"iters_per_claim", claims > 0 ? double(t.dispatch_iters) / claims : 0.0},
        {"empty_claim_ratio",
         t.dispatch_calls > 0
             ? double(t.dispatch_empty) / double(t.dispatch_calls)
             : 0.0},
        {"reduce_calls", double(t.reduce_calls)},
        {"reduce_s", t.reduce_s},
        {"atomic_calls", double(t.atomic_calls)},
        {"atomic_s", t.atomic_s},
        {"spawn_calls", double(t.spawn_calls)},
        {"spawn_s", t.spawn_s},
        {"tasks_executed", executed},
        {"steal_attempts", steals},
        {"steal_success_ratio",
         steals > 0 ? double(t.steal_success) / steals : 0.0},
    };
    if (names.empty()) {
      for (const auto& [name, v] : row) names.push_back(name);
      per_call.resize(names.size());
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      per_call[i].push_back(row[i].second);
    }
  } while (now_s() < end);

  const Transpiler tp(spec);
  std::vector<double> compile_s, emit_s;
  Transpiler::Pass pass;
  for (int i = 0; i < 20; ++i) {
    pass = tp.run();
    compile_s.push_back(pass.compile_s);
    emit_s.push_back(pass.emit_s);
    ++attempted;
    if (!pass.same) ++failed;
  }

  Json j;
  for (std::size_t i = 0; i < names.size(); ++i) {
    j.num(names[i], median(per_call[i]));
  }
  j.num("calls", static_cast<double>(per_call[0].size()))
      .list("det_counts", det_first)
      .boolean("det_stable", det_stable)
      .boolean("team_stats_monotonic", stats_monotonic)
      .num("serial_s", serial_s)
      .num("compile_s", median(compile_s))
      .num("emit_s", median(emit_s))
      .num("outlined_regions", pass.outlined)
      .num("runtime_calls", pass.runtime_calls)
      .num("attempted", attempted)
      .num("failed", failed)
      .boolean("oracle_rejects_corruption", oracle_rejects_corruption(kexp, last))
      .num("threads", zomp::max_threads())
      .print();
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const Args a(argc, argv);
  const Spec* spec = find_spec(a.workload);
  if (spec == nullptr) die("unknown --workload");
  if (a.mode == "setup") return mode_setup(*spec, a);
#if BENCH_TRACED
  if (a.mode == "trace") return mode_trace(*spec, a);
#else
  if (a.mode == "run" || a.mode == "kernel") return mode_run(*spec, a);
#endif
  die("unknown --mode for this binary");
}
