#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "npb/ep.h"
#include "npb/nprandom.h"

namespace perfbench {

namespace {

constexpr Spec kSpecs[] = {
    {"cg-A", Kind::kCg, "cg", true},
    {"ep-S", Kind::kEp, "ep", false},
    {"mandel-1k", Kind::kMandel, "mandel", false},
    {"wavefront", Kind::kWavefront, "taskgraph", true},
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// cg_make_matrix's generator (random symmetric pattern, diagonal set to the
/// row's off-diagonal magnitude + 1, hence SPD) started from a seeded odd
/// 46-bit state of the NPB randlc stream instead of the canonical seed.
zomp::npb::SparseMatrix make_cg_matrix(std::uint64_t seed) {
  using zomp::npb::randlc;
  std::uint64_t mix = seed;
  double state = static_cast<double>((splitmix64(mix) >> 18) | 1u);
  std::vector<std::map<std::int64_t, double>> rows(
      static_cast<std::size_t>(kCgNa));
  for (std::int64_t i = 1; i < kCgNa; ++i) {
    for (std::int64_t k = 0; k < kCgNonzer; ++k) {
      const double r1 = randlc(&state, zomp::npb::kRandA);
      const double r2 = randlc(&state, zomp::npb::kRandA);
      const auto j = static_cast<std::int64_t>(r1 * static_cast<double>(i));
      const double v = r2 - 0.5;
      rows[static_cast<std::size_t>(i)][j] += v;
      rows[static_cast<std::size_t>(j)][i] += v;
    }
  }
  zomp::npb::SparseMatrix a;
  a.n = kCgNa;
  a.rowstr.assign(static_cast<std::size_t>(kCgNa) + 1, 0);
  for (std::int64_t i = 0; i < kCgNa; ++i) {
    auto& row = rows[static_cast<std::size_t>(i)];
    double sum = 0.0;
    for (const auto& [j, v] : row) sum += std::fabs(v);
    row[i] = sum + 1.0;
    a.rowstr[static_cast<std::size_t>(i) + 1] =
        a.rowstr[static_cast<std::size_t>(i)] +
        static_cast<std::int64_t>(row.size());
    for (const auto& [j, v] : row) {
      a.colidx.push_back(j);
      a.values.push_back(v);
    }
  }
  return a;
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  switch (spec.kind) {
    case Kind::kCg:
      in.cg = make_cg_matrix(seed);
      break;
    case Kind::kEp:
      break;
    case Kind::kMandel:
      in.mandel = zomp::npb::MandelParams{kMandelSide, kMandelSide, kMandelIter};
      break;
    case Kind::kWavefront: {
      // b = L x_true for a small seeded x_true: every partial sum of the
      // solve stays below 9 * n in magnitude, so no i64 arithmetic of the
      // kernel can overflow, and the exact solution is known.
      const std::int64_t n = kWaveNb * kWaveBs;
      std::uint64_t mix = seed;
      in.wave_x_true.resize(static_cast<std::size_t>(n));
      for (auto& v : in.wave_x_true) {
        v = static_cast<std::int64_t>(splitmix64(mix) % 19) - 9;
      }
      in.wave_b.resize(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t s = 0;
        for (std::int64_t j = 0; j < i; ++j) {
          s += wave_l(i, j) * in.wave_x_true[static_cast<std::size_t>(j)];
        }
        in.wave_b[static_cast<std::size_t>(i)] =
            in.wave_x_true[static_cast<std::size_t>(i)] + s;
      }
      break;
    }
  }
  return in;
}

bool check(const Expect& expect, const std::vector<double>& got) {
  if (got.size() != expect.want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double want = expect.want[i];
    const double tol = expect.rel_tol[i];
    if (tol == 0.0) {
      if (got[i] != want) return false;
    } else if (!(std::fabs(got[i] - want) <= tol * std::fabs(want))) {
      return false;
    }
  }
  return true;
}

bool oracle_rejects_corruption(const Expect& expect,
                               const std::vector<double>& good) {
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<double> bad = good;
    const double tol = expect.rel_tol[i];
    bad[i] += tol == 0.0 ? 1.0 : 1000.0 * tol * std::fabs(expect.want[i]);
    if (check(expect, bad)) return false;
  }
  return !good.empty();
}

std::int64_t wave_checksum(const std::vector<std::int64_t>& x) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i] * (static_cast<std::int64_t>(i % 13) + 1);
  }
  return sum;
}

std::int64_t wave_serial(const std::vector<std::int64_t>& b,
                         std::vector<std::int64_t>& x) {
  x = b;
  for (std::int64_t k = 0; k < kWaveNb; ++k) {
    const std::int64_t lo = k * kWaveBs;
    for (std::int64_t i = lo; i < lo + kWaveBs; ++i) {
      std::int64_t s = 0;
      for (std::int64_t j = lo; j < i; ++j) s += wave_l(i, j) * x[j];
      x[i] -= s;
    }
    for (std::int64_t jb = k + 1; jb < kWaveNb; ++jb) {
      for (std::int64_t i = jb * kWaveBs; i < (jb + 1) * kWaveBs; ++i) {
        std::int64_t s = 0;
        for (std::int64_t t = lo; t < lo + kWaveBs; ++t) s += wave_l(i, t) * x[t];
        x[i] -= s;
      }
    }
  }
  return wave_checksum(x);
}

std::vector<double> run_serial(const Spec& spec, const Inputs& in) {
  switch (spec.kind) {
    case Kind::kCg: {
      const auto r = zomp::npb::cg_serial(in.cg, kCgNiter, kCgShift);
      return {r.zeta, r.final_rnorm};
    }
    case Kind::kEp: {
      const auto r = zomp::npb::ep_serial(kEpM);
      std::vector<double> out{r.sx, r.sy, static_cast<double>(r.pairs_in_disc)};
      for (const auto c : r.q) out.push_back(static_cast<double>(c));
      return out;
    }
    case Kind::kMandel: {
      const auto r = zomp::npb::mandel_serial(in.mandel);
      return {static_cast<double>(r.inside),
              static_cast<double>(r.iter_checksum)};
    }
    case Kind::kWavefront: {
      std::vector<std::int64_t> x;
      const std::int64_t sum = wave_serial(in.wave_b, x);
      if (x != in.wave_x_true) {
        std::fprintf(stderr, "perfbench: serial wavefront solve is wrong\n");
        std::abort();
      }
      return {static_cast<double>(sum)};
    }
  }
  return {};
}

Expect kernel_expect(const Spec& spec, const std::vector<double>& serial) {
  Expect e{serial, std::vector<double>(serial.size(), 0.0)};
  if (spec.kind == Kind::kEp) {
    e.rel_tol[0] = 1e-8;  // sx, sy: the team reduction reorders the sums
    e.rel_tol[1] = 1e-8;
  }
  return e;
}

Expect ref_expect(const Spec& spec, const std::vector<double>& serial) {
  switch (spec.kind) {
    case Kind::kCg:
      // zomp::reduce_each combines dot products in tree order; rnorm is a
      // converged residual (~1e-10), so only its leading digits are stable.
      return Expect{serial, {1e-10, 1e-3}};
    case Kind::kEp:
      return Expect{{serial[0], serial[1], serial[2]}, {1e-8, 1e-8, 0.0}};
    default:
      return kernel_expect(spec, serial);
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
