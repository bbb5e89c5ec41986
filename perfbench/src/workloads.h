// Workload inputs and oracles shared by the zomp benchmark binaries.
//
// Every workload is one paper kernel at one fixed size. The seed drives the
// generated inputs where the kernel has any (the CG matrix pattern and
// values, the wavefront right-hand side); EP and Mandelbrot are fixed by
// their size and ignore it. Outputs travel as a flat vector of doubles so a
// single checker serves every kernel: each position is either compared
// exactly or within a relative tolerance, and `oracle_rejects_corruption`
// proves for every position that the checker can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "npb/cg.h"
#include "npb/mandel.h"

namespace perfbench {

enum class Kind { kCg, kEp, kMandel, kWavefront };

struct Spec {
  const char* name;
  Kind kind;
  const char* kernel;  ///< src/npb/kernels/<kernel>.mz, module <kernel>_mz
  bool seeded;         ///< false: the seed changes nothing
};

/// nullptr for an unknown name.
const Spec* find_spec(const std::string& name);

// Fixed sizes (see perfbench/README.md for why each was chosen).
inline constexpr std::int64_t kCgNa = 14000;     // NPB CG class A
inline constexpr std::int64_t kCgNonzer = 11;
inline constexpr int kCgNiter = 15;
inline constexpr double kCgShift = 20.0;
inline constexpr int kEpM = 24;                  // NPB EP class S
inline constexpr std::int64_t kMandelSide = 1024;
inline constexpr std::int64_t kMandelIter = 2000;
inline constexpr std::int64_t kWaveNb = 128;
inline constexpr std::int64_t kWaveBs = 16;

struct Inputs {
  zomp::npb::SparseMatrix cg;               // kCg
  zomp::npb::MandelParams mandel;           // kMandel
  std::vector<std::int64_t> wave_b;         // kWavefront right-hand side
  std::vector<std::int64_t> wave_x_true;    // kWavefront exact solution
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed);

/// What a correct output looks like: value i must equal want[i] exactly when
/// rel_tol[i] == 0, else within rel_tol[i] * |want[i]|.
struct Expect {
  std::vector<double> want;
  std::vector<double> rel_tol;
};

/// True when `got` matches `expect` position by position.
bool check(const Expect& expect, const std::vector<double>& got);

/// Corrupts each position of `good` in turn (an exact position by one unit,
/// a toleranced one by a thousand tolerances) and returns true only when
/// `check` rejects every corrupted copy.
bool oracle_rejects_corruption(const Expect& expect,
                               const std::vector<double>& good);

/// Output vectors, in the order the oracles expect them:
///   cg:        {zeta, rnorm}
///   ep:        {sx, sy, accepted, q[0..9]}       (reference: {sx, sy, accepted})
///   mandel:    {inside, iteration checksum}
///   wavefront: {weighted x checksum}
///
/// Serial ground truth for the workload (what npb.serial_s times). Returns
/// the output vector; aborts if the wavefront's serial blocked solve does
/// not reproduce the generated exact solution.
std::vector<double> run_serial(const Spec& spec, const Inputs& in);

/// Oracle for the transpiled kernel (and its libgomp twin), built from the
/// serial output: CG is bit-exact (the kernel states bit-identity with
/// cg_serial), EP is exact on `accepted` and every q bin with a relative
/// tolerance on sx/sy, Mandelbrot and the wavefront are exact.
Expect kernel_expect(const Spec& spec, const std::vector<double>& serial);

/// Oracle for the hand-written reference (tree-ordered reductions, so CG's
/// zeta and rnorm get a tolerance; EP reports no q bins).
Expect ref_expect(const Spec& spec, const std::vector<double>& serial);

/// The serial blocked wavefront solve, in the kernel's block order; returns
/// the weighted checksum and leaves the solution in `x`.
std::int64_t wave_serial(const std::vector<std::int64_t>& b,
                         std::vector<std::int64_t>& x);

/// L(i, j) of the wavefront's implicit unit-lower-triangular matrix.
inline std::int64_t wave_l(std::int64_t i, std::int64_t j) {
  std::int64_t r = (i + 2 * j) % 3;
  if (r < 0) r += 3;
  return r - 1;
}

/// sum x[i] * (i % 13 + 1), the checksum wavefront_run returns.
std::int64_t wave_checksum(const std::vector<std::int64_t>& x);

/// steady_clock seconds since an arbitrary epoch.
double now_s();

/// Median of a non-empty sample (copies).
double median(std::vector<double> v);

}  // namespace perfbench
