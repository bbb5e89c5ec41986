// `#pragma omp` twins of the four transpiled kernels, built with -fopenmp
// against the installed libgomp: the outside yardstick (npb.gomp_s). Each
// twin keeps its MiniZig kernel's structure line for line — CG's single-
// member dot products, EP's shared-histogram atomics and static schedule,
// Mandelbrot's schedule(dynamic, 1) with a 2-variable reduction, the
// wavefront's depend graph — so the ratio compares runtimes, not
// algorithms. Outputs are checked by the same oracles as the kernels.
//
//   gomp_twins --workload W --seed N --threads T --seconds S
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

std::vector<double> cg_twin(const zomp::npb::SparseMatrix& a,
                            std::vector<double>& x, std::vector<double>& z,
                            std::vector<double>& r, std::vector<double>& p,
                            std::vector<double>& q) {
  const std::int64_t n = a.n;
  const std::int64_t* rowstr = a.rowstr.data();
  const std::int64_t* colidx = a.colidx.data();
  const double* values = a.values.data();
  for (std::int64_t i = 0; i < n; ++i) x[i] = 1.0;
  double zeta = 0.0, rho = 0.0, alpha = 0.0, beta = 0.0, rnorm = 0.0;
  for (int it = 0; it < kCgNiter; ++it) {
#pragma omp parallel
    {
#pragma omp for
      for (std::int64_t i = 0; i < n; ++i) {
        z[i] = 0.0;
        r[i] = x[i];
        p[i] = x[i];
      }
#pragma omp single
      {
        double s = 0.0;
        for (std::int64_t i = 0; i < n; ++i) s += r[i] * r[i];
        rho = s;
      }
      for (int cgit = 0; cgit < 25; ++cgit) {
#pragma omp for
        for (std::int64_t i = 0; i < n; ++i) {
          double sum = 0.0;
          for (std::int64_t k = rowstr[i]; k < rowstr[i + 1]; ++k) {
            sum += values[k] * p[colidx[k]];
          }
          q[i] = sum;
        }
#pragma omp single
        {
          double s = 0.0;
          for (std::int64_t i = 0; i < n; ++i) s += p[i] * q[i];
          alpha = rho / s;
        }
#pragma omp for
        for (std::int64_t i = 0; i < n; ++i) {
          z[i] += alpha * p[i];
          r[i] -= alpha * q[i];
        }
#pragma omp single
        {
          double s = 0.0;
          for (std::int64_t i = 0; i < n; ++i) s += r[i] * r[i];
          beta = s / rho;
          rho = s;
        }
#pragma omp for
        for (std::int64_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
      }
#pragma omp single
      {
        double s = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
          double az = 0.0;
          for (std::int64_t k = rowstr[i]; k < rowstr[i + 1]; ++k) {
            az += values[k] * z[colidx[k]];
          }
          const double diff = x[i] - az;
          s += diff * diff;
        }
        rnorm = std::sqrt(s);
      }
    }
    double xz = 0.0, zz = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      xz += x[i] * z[i];
      zz += z[i] * z[i];
    }
    zeta = kCgShift + 1.0 / xz;
    const double norm = 1.0 / std::sqrt(zz);
    for (std::int64_t i = 0; i < n; ++i) x[i] = norm * z[i];
  }
  return {zeta, rnorm};
}

// ep.mz's generator, written the same way (split 23-bit arithmetic).
inline double randlc(double* x, double a) {
  const double r23 = 1.0 / 8388608.0, t23 = 8388608.0;
  const double r46 = r23 * r23, t46 = t23 * t23;
  const double a1 = static_cast<double>(static_cast<std::int64_t>(r23 * a));
  const double a2 = a - t23 * a1;
  const double x1 = static_cast<double>(static_cast<std::int64_t>(r23 * *x));
  const double x2 = *x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<std::int64_t>(r23 * t1));
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<std::int64_t>(r46 * t3));
  *x = t3 - t46 * t4;
  return r46 * *x;
}

double ipow46(double a, std::int64_t exponent) {
  if (exponent == 0) return 1.0;
  double q = a, r = 1.0;
  std::int64_t n = exponent;
  while (n > 1) {
    if ((n / 2) * 2 == n) {
      randlc(&q, q);
      n /= 2;
    } else {
      randlc(&r, q);
      n -= 1;
    }
  }
  randlc(&r, q);
  return r;
}

std::vector<double> ep_twin() {
  const std::int64_t pairs = 65536;
  const std::int64_t blocks = std::int64_t{1} << (kEpM - 16);
  double q[10] = {};
  double sx = 0.0, sy = 0.0, accepted = 0.0;
#pragma omp parallel for reduction(+ : sx, sy, accepted) schedule(static)
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    double seed = 314159265.0;
    randlc(&seed, ipow46(1220703125.0, 2 * blk * pairs));
    for (std::int64_t i = 0; i < pairs; ++i) {
      const double x = 2.0 * randlc(&seed, 1220703125.0) - 1.0;
      const double y = 2.0 * randlc(&seed, 1220703125.0) - 1.0;
      const double t1 = x * x + y * y;
      if (t1 <= 1.0) {
        const double t2 = std::sqrt(-2.0 * std::log(t1) / t1);
        const double gx = x * t2, gy = y * t2;
        const auto bin =
            static_cast<std::int64_t>(std::max(std::fabs(gx), std::fabs(gy)));
        if (bin < 10) {
#pragma omp atomic
          q[bin] += 1.0;
        }
        sx += gx;
        sy += gy;
        accepted += 1.0;
      }
    }
  }
  std::vector<double> out{sx, sy, accepted};
  out.insert(out.end(), q, q + 10);
  return out;
}

std::int64_t mandel_pixel(double cr, double ci, std::int64_t max_iter) {
  double zr = 0.0, zi = 0.0;
  std::int64_t it = 0;
  while (it < max_iter && zr * zr + zi * zi <= 4.0) {
    const double t = zr * zr - zi * zi + cr;
    zi = 2.0 * zr * zi + ci;
    zr = t;
    ++it;
  }
  return it;
}

std::vector<double> mandel_twin() {
  const std::int64_t w = kMandelSide, h = kMandelSide;
  std::int64_t inside = 0, checksum = 0;
#pragma omp parallel for reduction(+ : inside, checksum) schedule(dynamic, 1)
  for (std::int64_t y = 0; y < h; ++y) {
    const double ci = -1.25 + 2.5 * static_cast<double>(y) / static_cast<double>(h);
    for (std::int64_t x = 0; x < w; ++x) {
      const double cr =
          -2.0 + 2.5 * static_cast<double>(x) / static_cast<double>(w);
      const std::int64_t it = mandel_pixel(cr, ci, kMandelIter);
      checksum += it;
      if (it == kMandelIter) ++inside;
    }
  }
  return {static_cast<double>(inside), static_cast<double>(checksum)};
}

std::vector<double> wave_twin(const std::vector<std::int64_t>& b,
                              std::vector<std::int64_t>& xs) {
  xs = b;
  std::int64_t* x = xs.data();
  const std::int64_t bs = kWaveBs;
#pragma omp parallel
#pragma omp single
  for (std::int64_t k = 0; k < kWaveNb; ++k) {
#pragma omp task depend(inout : x[k * bs]) firstprivate(k)
    for (std::int64_t i = k * bs; i < (k + 1) * bs; ++i) {
      std::int64_t s = 0;
      for (std::int64_t j = k * bs; j < i; ++j) s += wave_l(i, j) * x[j];
      x[i] -= s;
    }
    for (std::int64_t jb = k + 1; jb < kWaveNb; ++jb) {
#pragma omp task depend(in : x[k * bs]) depend(inout : x[jb * bs]) \
    firstprivate(k, jb)
      for (std::int64_t i = jb * bs; i < (jb + 1) * bs; ++i) {
        std::int64_t s = 0;
        for (std::int64_t t = k * bs; t < (k + 1) * bs; ++t) {
          s += wave_l(i, t) * x[t];
        }
        x[i] -= s;
      }
    }
  }
  return {static_cast<double>(wave_checksum(xs))};
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k == "--workload") workload = argv[i + 1];
    else if (k == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (k == "--threads") threads = std::atoi(argv[i + 1]);
    else if (k == "--seconds") seconds = std::atof(argv[i + 1]);
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || threads < 1) {
    std::fprintf(stderr, "usage: gomp_twins --workload W --seed N "
                         "--threads T --seconds S\n");
    return 2;
  }
  omp_set_num_threads(threads);
  const Inputs in = make_inputs(*spec, seed);
  const Expect expect = kernel_expect(*spec, run_serial(*spec, in));

  const auto n = static_cast<std::size_t>(in.cg.n);
  std::vector<double> x(n), z(n), r(n), p(n), q(n);
  std::vector<std::int64_t> wx;
  auto call = [&]() -> std::vector<double> {
    switch (spec->kind) {
      case Kind::kCg: return cg_twin(in.cg, x, z, r, p, q);
      case Kind::kEp: return ep_twin();
      case Kind::kMandel: return mandel_twin();
      case Kind::kWavefront: return wave_twin(in.wave_b, wx);
    }
    return {};
  };

  int attempted = 0;
  int failed = 0;
  std::vector<double> samples;
  std::vector<double> last;
  const double end = now_s() + seconds;
  for (bool warm = true;; warm = false) {
    const double t0 = now_s();
    last = call();
    if (!warm) samples.push_back(now_s() - t0);
    ++attempted;
    if (!check(expect, last)) ++failed;
    if (!warm && now_s() >= end) break;
  }
  std::printf("{\"gomp_s\":%.17g,\"calls\":%zu,\"attempted\":%d,\"failed\":%d,"
              "\"oracle_rejects_corruption\":%s,\"threads\":%d}\n",
              median(samples), samples.size(), attempted, failed,
              oracle_rejects_corruption(expect, last) ? "true" : "false",
              omp_get_max_threads());
  return 0;
}
