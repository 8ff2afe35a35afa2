// Conformance and fuzz test for the lane-wise face kernels:
// riemann::kernels::simd::srhd_faces_n (LLF / HLL / HLLC) and srmhd_faces_n
// (HLL, GLM on and off) must reproduce the struct-based per-interface
// oracle (tests/support/face_reference.hpp: the branchy limiter, then the
// branchy solve) bit for bit, on rows whose lanes take different branches
// side by side, on every axis, at every vector remainder. The
// per-interface riemann::solve_srhd / solve_srmhd_hll, which run the same
// lane code on one-interface rows without the limiter, are pinned against
// the oracle's unlimited solve the same way.
//
// The states are seeded. A pool per axis is searched (with the oracle as
// the judge) until it holds states for every branch: sl >= 0 and sr <= 0,
// lambda* of both signs, lambda* clamped to sl and to sr, the linear
// contact root; the limiter cases (floored rho and p, |v| >= 1, v = 0,
// where the discarded cap divides by zero) are planted by construction.
// The test asserts the coverage, so a generator change cannot quietly
// stop exercising a branch.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "rshc/riemann/kernels.hpp"
#include "rshc/riemann/riemann.hpp"
#include "support/face_reference.hpp"

namespace {

using namespace rshc;
namespace ref = rshc::testsupport::face_reference;
using riemann::Solver;

constexpr double kRhoFloor = 1e-14;
constexpr double kPFloor = 1e-16;
constexpr double kVmax = 1.0 - 1e-10;
const eos::IdealGas kEos(5.0 / 3.0);

// Around the vector width (4 doubles at 32 bytes) and its unrolled
// multiples: one lane, a remainder only, full vectors +- 1, many.
const std::size_t kLengths[] = {1, 7, 63, 64, 65, 129};

double log_uniform(std::mt19937_64& rng, double lo_exp, double hi_exp) {
  return std::pow(10.0,
                  std::uniform_real_distribution<double>(lo_exp, hi_exp)(rng));
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// A random direction scaled to `mag`, with its `axis` component made
/// positive (sign > 0), negative (sign < 0) or left random (sign == 0).
template <typename P>
void set_velocity(std::mt19937_64& rng, P& w, double mag, int axis,
                  int sign) {
  std::normal_distribution<double> g(0.0, 1.0);
  double v[3] = {g(rng), g(rng), g(rng)};
  if (sign != 0) v[axis] = sign * (std::abs(v[axis]) * 4.0 + 1.0);
  const double r = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  w.vx = mag * v[0] / r;
  w.vy = mag * v[1] / r;
  w.vz = mag * v[2] / r;
}

template <typename P>
bool all_finite(const P& c) {
  static_assert(sizeof(P) % sizeof(double) == 0);
  std::array<double, sizeof(P) / sizeof(double)> v{};
  std::memcpy(v.data(), &c, sizeof(P));
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SRHD
// ---------------------------------------------------------------------------

struct SrhdPair {
  srhd::Prim l, r;
};

/// One physical SRHD state of family `fam` for interfaces along `axis`.
srhd::Prim srhd_state(std::mt19937_64& rng, int fam, int axis) {
  srhd::Prim w;
  w.rho = log_uniform(rng, -6.0, 2.0);
  w.p = log_uniform(rng, -8.0, 3.0);
  switch (fam) {
    case 0:  // moderate
      set_velocity(rng, w, uniform(rng, 0.0, 0.9), axis, 0);
      break;
    case 1:  // ultra-relativistic, W up to ~2e4
      set_velocity(rng, w, 1.0 - log_uniform(rng, -9.0, -1.0), axis, 0);
      break;
    case 2:  // cold supersonic flow along +axis
    case 3:  // ... and along -axis
      w.p = w.rho * log_uniform(rng, -8.0, -3.0);
      set_velocity(rng, w, 1.0 - log_uniform(rng, -6.0, -1.0), axis,
                   fam == 2 ? 1 : -1);
      break;
    default:  // rho and p across 24 decades: the contact root may leave
              // [sl, sr] and be clamped
      w.rho = log_uniform(rng, -12.0, 12.0);
      w.p = log_uniform(rng, -12.0, 12.0);
      set_velocity(rng, w, uniform(rng, 0.0, 0.99), axis, 0);
      break;
  }
  return w;
}

/// Both sides identical and at rest: fE_h vanishes exactly, so HLLC takes
/// the linear contact root, and the limiter's cap sees v = 0.
SrhdPair srhd_rest_pair(std::mt19937_64& rng) {
  srhd::Prim w;
  w.rho = log_uniform(rng, -6.0, 2.0);
  w.p = log_uniform(rng, -8.0, 3.0);
  return {w, w};
}

ref::HllcPath srhd_path(const SrhdPair& s, int axis) {
  ref::HllcPath path;
  (void)ref::hllc(ref::srhd_side(s.l, axis, kEos),
                  ref::srhd_side(s.r, axis, kEos), axis, &path);
  return path;
}

bool srhd_finite(const SrhdPair& s, int axis) {
  for (Solver solver : {Solver::kLLF, Solver::kHLL, Solver::kHLLC}) {
    if (!all_finite(ref::solve_srhd(solver, s.l, s.r, axis, kEos))) {
      return false;
    }
  }
  return true;
}

/// The branch pool for one axis: for every HLLC branch, a few seeded pairs
/// that take it (found by search with the oracle as the judge).
std::vector<SrhdPair> srhd_pool(int axis, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::function<bool(const ref::HllcPath&)> wants[] = {
      [](const ref::HllcPath& p) { return p.left_fan; },
      [](const ref::HllcPath& p) { return p.right_fan; },
      [](const ref::HllcPath& p) {
        return !p.left_fan && !p.right_fan && p.star_left;
      },
      [](const ref::HllcPath& p) {
        return !p.left_fan && !p.right_fan && !p.star_left;
      },
      [](const ref::HllcPath& p) { return p.clamp_lo; },
      [](const ref::HllcPath& p) { return p.clamp_hi; },
  };
  constexpr int kPerBranch = 4;
  std::vector<SrhdPair> pool;
  for (const auto& want : wants) {
    int found = 0;
    for (int tries = 0; found < kPerBranch && tries < 2000000; ++tries) {
      const int fam = static_cast<int>(rng() % 5);
      const SrhdPair s{srhd_state(rng, fam, axis), srhd_state(rng, fam, axis)};
      if (want(srhd_path(s, axis)) && srhd_finite(s, axis)) {
        pool.push_back(s);
        ++found;
      }
    }
  }
  for (int k = 0; k < kPerBranch; ++k) pool.push_back(srhd_rest_pair(rng));
  return pool;
}

/// Unsanitized face state for the limiter: below-floor or negative rho
/// and p, |v| at or past 1, v = 0.
void spoil(std::mt19937_64& rng, srhd::Prim& w) {
  switch (rng() % 6) {
    case 0: w.rho = kRhoFloor * uniform(rng, 0.0, 1.0); break;
    case 1: w.rho = -w.rho; break;
    case 2: w.p = (rng() & 1) != 0 ? -w.p : kPFloor * uniform(rng, 0.0, 1.0);
            break;
    case 3: {
      const double v = std::sqrt(w.v_sq()) + 1e-300;
      const double k = uniform(rng, 1.0, 3.0) / v;
      w.vx *= k;
      w.vy *= k;
      w.vz *= k;
      break;
    }
    case 4: w.vx = w.vy = w.vz = 0.0; break;
    default: break;
  }
}

/// Rows of `n` interfaces: pool pairs interleaved with fresh random ones,
/// so neighbouring lanes of one vector take different branches. With
/// `spoiled`, a third of the sides are spoiled for the limiter.
std::vector<SrhdPair> srhd_row_states(const std::vector<SrhdPair>& pool,
                                      std::size_t n, int axis, bool spoiled,
                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<SrhdPair> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 2 == 0) {
      row[i] = pool[rng() % pool.size()];
    } else {
      const int fam = static_cast<int>(rng() % 5);
      do {
        row[i] = {srhd_state(rng, fam, axis), srhd_state(rng, fam, axis)};
      } while (!srhd_finite(row[i], axis));
    }
    if (spoiled && rng() % 3 == 0) spoil(rng, row[i].l);
    if (spoiled && rng() % 3 == 0) spoil(rng, row[i].r);
  }
  return row;
}

/// SoA rows of `nvars` variables.
struct Rows {
  std::vector<std::vector<double>> v;
  Rows(int nvars, std::size_t n)
      : v(static_cast<std::size_t>(nvars), std::vector<double>(n)) {}
  std::vector<const double*> in() const {
    std::vector<const double*> p;
    for (const auto& r : v) p.push_back(r.data());
    return p;
  }
  std::vector<double*> out() {
    std::vector<double*> p;
    for (auto& r : v) p.push_back(r.data());
    return p;
  }
};

Rows srhd_prim_rows(const std::vector<SrhdPair>& row, bool left) {
  Rows w(srhd::kNumVars, row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    const srhd::Prim& s = left ? row[i].l : row[i].r;
    w.v[srhd::kRho][i] = s.rho;
    w.v[srhd::kVx][i] = s.vx;
    w.v[srhd::kVy][i] = s.vy;
    w.v[srhd::kVz][i] = s.vz;
    w.v[srhd::kP][i] = s.p;
  }
  return w;
}

void put(Rows& f, std::size_t i, const srhd::Cons& c) {
  f.v[srhd::kD][i] = c.d;
  f.v[srhd::kSx][i] = c.sx;
  f.v[srhd::kSy][i] = c.sy;
  f.v[srhd::kSz][i] = c.sz;
  f.v[srhd::kTau][i] = c.tau;
}

/// First (variable, interface) whose bits differ, or "" when identical.
std::string first_diff(const Rows& got, const Rows& want) {
  for (std::size_t k = 0; k < want.v.size(); ++k) {
    const std::size_t n = want.v[k].size();
    if (std::memcmp(got.v[k].data(), want.v[k].data(), n * sizeof(double)) ==
        0) {
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::memcmp(&got.v[k][i], &want.v[k][i], sizeof(double)) != 0) {
        return "var " + std::to_string(k) + " interface " +
               std::to_string(i) + ": got " + std::to_string(got.v[k][i]) +
               " want " + std::to_string(want.v[k][i]);
      }
    }
  }
  return "";
}

TEST(FacesLanes, SrhdRowsMatchOracleBitwise) {
  int seen[7] = {};
  int spoiled_seen[4] = {};
  for (int axis = 0; axis < 3; ++axis) {
    const auto pool = srhd_pool(axis, 1000 + static_cast<std::uint64_t>(axis));
    for (const SrhdPair& s : pool) {
      const ref::HllcPath p = srhd_path(s, axis);
      seen[0] += p.left_fan;
      seen[1] += p.right_fan;
      seen[2] += !p.left_fan && !p.right_fan && p.star_left;
      seen[3] += !p.left_fan && !p.right_fan && !p.star_left;
      seen[4] += p.linear;
      seen[5] += p.clamp_lo;
      seen[6] += p.clamp_hi;
    }
    for (Solver solver : {Solver::kLLF, Solver::kHLL, Solver::kHLLC}) {
      for (std::size_t n : kLengths) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          const auto row =
              srhd_row_states(pool, n, axis, true, seed * 7919 + n);
          const Rows wl = srhd_prim_rows(row, true);
          const Rows wr = srhd_prim_rows(row, false);
          Rows got(srhd::kNumVars, n);
          Rows want(srhd::kNumVars, n);
          riemann::kernels::simd::srhd_faces_n(
              n, axis, solver, wl.in().data(), wr.in().data(),
              got.out().data(), kEos, kRhoFloor, kPFloor);
          for (std::size_t i = 0; i < n; ++i) {
            srhd::Prim a = row[i].l;
            srhd::Prim b = row[i].r;
            for (const srhd::Prim* w : {&a, &b}) {
              spoiled_seen[0] += w->rho < kRhoFloor;
              spoiled_seen[1] += w->p < kPFloor;
              spoiled_seen[2] += w->v_sq() >= kVmax * kVmax;
              spoiled_seen[3] += w->v_sq() == 0.0;
            }
            ref::limit_face(a, kRhoFloor, kPFloor);
            ref::limit_face(b, kRhoFloor, kPFloor);
            put(want, i, ref::solve_srhd(solver, a, b, axis, kEos));
          }
          const std::string diff = first_diff(got, want);
          ASSERT_EQ(diff, "") << riemann::solver_name(solver) << " axis "
                              << axis << " n " << n << " seed " << seed;
        }
      }
    }
  }
  EXPECT_GT(seen[0], 0) << "no sl >= 0 lane";
  EXPECT_GT(seen[1], 0) << "no sr <= 0 lane";
  EXPECT_GT(seen[2], 0) << "no left star state";
  EXPECT_GT(seen[3], 0) << "no right star state";
  EXPECT_GT(seen[4], 0) << "no linear contact root";
  EXPECT_GT(seen[5], 0) << "no contact root clamped to sl";
  EXPECT_GT(seen[6], 0) << "no contact root clamped to sr";
  EXPECT_GT(spoiled_seen[0], 0) << "no floored rho";
  EXPECT_GT(spoiled_seen[1], 0) << "no floored p";
  EXPECT_GT(spoiled_seen[2], 0) << "no capped |v|";
  EXPECT_GT(spoiled_seen[3], 0) << "no v = 0 side";
}

TEST(FacesLanes, SrhdPerInterfaceSolveMatchesOracleBitwise) {
  // solve_srhd runs the lane kernel on a one-interface row, unlimited.
  for (int axis = 0; axis < 3; ++axis) {
    const auto pool = srhd_pool(axis, 2000 + static_cast<std::uint64_t>(axis));
    const auto row = srhd_row_states(pool, 257, axis, false, 17);
    for (Solver solver : {Solver::kLLF, Solver::kHLL, Solver::kHLLC}) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        const srhd::Cons got =
            riemann::solve_srhd(solver, row[i].l, row[i].r, axis, kEos);
        const srhd::Cons want =
            ref::solve_srhd(solver, row[i].l, row[i].r, axis, kEos);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
            << riemann::solver_name(solver) << " axis " << axis
            << " interface " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SRMHD
// ---------------------------------------------------------------------------

struct SrmhdPair {
  srmhd::Prim l, r;
};

srmhd::Prim srmhd_state(std::mt19937_64& rng, int fam, int axis) {
  srmhd::Prim w;
  w.rho = log_uniform(rng, -4.0, 2.0);
  w.p = log_uniform(rng, -6.0, 2.0);
  double bmag = log_uniform(rng, -3.0, 1.5);
  switch (fam) {
    case 0:
      set_velocity(rng, w, uniform(rng, 0.0, 0.95), axis, 0);
      break;
    case 1:  // cold, weakly magnetized, supersonic along +-axis
    case 2:
      w.p = w.rho * log_uniform(rng, -8.0, -3.0);
      bmag = std::sqrt(w.rho) * log_uniform(rng, -6.0, -3.0);
      set_velocity(rng, w, 1.0 - log_uniform(rng, -5.0, -1.0), axis,
                   fam == 1 ? 1 : -1);
      break;
    default:  // ultra-relativistic and strongly magnetized
      set_velocity(rng, w, 1.0 - log_uniform(rng, -7.0, -1.0), axis, 0);
      bmag = log_uniform(rng, 0.0, 2.0);
      break;
  }
  std::normal_distribution<double> g(0.0, 1.0);
  const double bx = g(rng), by = g(rng), bz = g(rng);
  const double r = std::sqrt(bx * bx + by * by + bz * bz);
  w.bx = bmag * bx / r;
  w.by = bmag * by / r;
  w.bz = bmag * bz / r;
  w.psi = g(rng) * 0.1;
  return w;
}

/// -1: sl >= 0, +1: sr <= 0, 0: the HLL average.
int srmhd_fan(const SrmhdPair& s, int axis) {
  const auto ssl = srmhd::fast_speeds(s.l, axis, kEos);
  const auto ssr = srmhd::fast_speeds(s.r, axis, kEos);
  const double sl = std::min({0.0, ssl.lambda_minus, ssr.lambda_minus});
  const double sr = std::max({0.0, ssl.lambda_plus, ssr.lambda_plus});
  if (sl >= 0.0) return -1;
  if (sr <= 0.0) return 1;
  return 0;
}

std::vector<SrmhdPair> srmhd_pool(int axis, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const srmhd::GlmParams glm;
  std::vector<SrmhdPair> pool;
  for (int want = -1; want <= 1; ++want) {
    int found = 0;
    for (int tries = 0; found < 4 && tries < 2000000; ++tries) {
      const int fam = want == 0 ? static_cast<int>(rng() % 4)
                                : (want < 0 ? 1 : 2);
      const SrmhdPair s{srmhd_state(rng, fam, axis),
                        srmhd_state(rng, fam, axis)};
      if (srmhd_fan(s, axis) == want &&
          all_finite(ref::srmhd_hll(s.l, s.r, axis, kEos, glm))) {
        pool.push_back(s);
        ++found;
      }
    }
  }
  return pool;
}

std::vector<SrmhdPair> srmhd_row_states(const std::vector<SrmhdPair>& pool,
                                        std::size_t n, int axis,
                                        bool spoiled, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const srmhd::GlmParams glm;
  std::vector<SrmhdPair> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 2 == 0) {
      row[i] = pool[rng() % pool.size()];
    } else {
      const int fam = static_cast<int>(rng() % 4);
      do {
        row[i] = {srmhd_state(rng, fam, axis), srmhd_state(rng, fam, axis)};
      } while (!all_finite(ref::srmhd_hll(row[i].l, row[i].r, axis, kEos,
                                          glm)));
    }
    if (!spoiled) continue;
    for (srmhd::Prim* w : {&row[i].l, &row[i].r}) {
      switch (rng() % 8) {
        case 0: w->rho = -w->rho; break;
        case 1: w->p = kPFloor * uniform(rng, 0.0, 1.0); break;
        case 2: {
          const double v = std::sqrt(w->v_sq()) + 1e-300;
          const double k = uniform(rng, 1.0, 2.0) / v;
          w->vx *= k;
          w->vy *= k;
          w->vz *= k;
          break;
        }
        case 3: w->vx = w->vy = w->vz = 0.0; break;
        default: break;
      }
    }
  }
  return row;
}

Rows srmhd_prim_rows(const std::vector<SrmhdPair>& row, bool left) {
  Rows w(srmhd::kNumVars, row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    const srmhd::Prim& s = left ? row[i].l : row[i].r;
    const double c[] = {s.rho, s.vx, s.vy, s.vz, s.p,
                        s.bx,  s.by, s.bz, s.psi};
    for (int k = 0; k < srmhd::kNumVars; ++k) {
      w.v[static_cast<std::size_t>(k)][i] = c[k];
    }
  }
  return w;
}

void put(Rows& f, std::size_t i, const srmhd::Cons& c) {
  const double v[] = {c.d, c.sx, c.sy, c.sz, c.tau, c.bx, c.by, c.bz, c.psi};
  for (int k = 0; k < srmhd::kNumVars; ++k) {
    f.v[static_cast<std::size_t>(k)][i] = v[k];
  }
}

std::vector<srmhd::GlmParams> glm_variants() {
  srmhd::GlmParams on;
  srmhd::GlmParams slow;
  slow.ch = 0.7;
  srmhd::GlmParams off;
  off.enabled = false;
  return {on, slow, off};
}

TEST(FacesLanes, SrmhdRowsMatchOracleBitwise) {
  int fans[3] = {};
  for (int axis = 0; axis < 3; ++axis) {
    const auto pool =
        srmhd_pool(axis, 3000 + static_cast<std::uint64_t>(axis));
    for (const SrmhdPair& s : pool) ++fans[srmhd_fan(s, axis) + 1];
    for (const srmhd::GlmParams& glm : glm_variants()) {
      for (std::size_t n : kLengths) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
          const auto row =
              srmhd_row_states(pool, n, axis, true, seed * 104729 + n);
          const Rows wl = srmhd_prim_rows(row, true);
          const Rows wr = srmhd_prim_rows(row, false);
          Rows got(srmhd::kNumVars, n);
          Rows want(srmhd::kNumVars, n);
          riemann::kernels::simd::srmhd_faces_n(
              n, axis, wl.in().data(), wr.in().data(), got.out().data(),
              kEos, glm, kRhoFloor, kPFloor);
          for (std::size_t i = 0; i < n; ++i) {
            srmhd::Prim a = row[i].l;
            srmhd::Prim b = row[i].r;
            ref::limit_face(a, kRhoFloor, kPFloor);
            ref::limit_face(b, kRhoFloor, kPFloor);
            put(want, i, ref::srmhd_hll(a, b, axis, kEos, glm));
          }
          const std::string diff = first_diff(got, want);
          ASSERT_EQ(diff, "") << "glm " << glm.enabled << " ch " << glm.ch
                              << " axis " << axis << " n " << n << " seed "
                              << seed;
        }
      }
    }
  }
  EXPECT_GT(fans[0], 0) << "no sl >= 0 lane";
  EXPECT_GT(fans[1], 0) << "no HLL-average lane";
  EXPECT_GT(fans[2], 0) << "no sr <= 0 lane";
}

TEST(FacesLanes, SrmhdPerInterfaceSolveMatchesOracleBitwise) {
  for (int axis = 0; axis < 3; ++axis) {
    const auto pool =
        srmhd_pool(axis, 4000 + static_cast<std::uint64_t>(axis));
    const auto row = srmhd_row_states(pool, 129, axis, false, 29);
    for (const srmhd::GlmParams& glm : glm_variants()) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        const srmhd::Cons got =
            riemann::solve_srmhd_hll(row[i].l, row[i].r, axis, kEos, glm);
        const srmhd::Cons want =
            ref::srmhd_hll(row[i].l, row[i].r, axis, kEos, glm);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
            << "glm " << glm.enabled << " axis " << axis << " interface "
            << i;
      }
    }
  }
}

}  // namespace
