// Conformance and fuzz test for the lane-wise con2prim tile solvers:
// srhd::kernels::{simd,scalar}::cons_to_prim_n and
// srmhd::kernels::simd::cons_to_prim_n must reproduce a per-zone
// cons_to_prim loop bit for bit (outputs memcmp-equal, the same iteration
// and floor totals) on adversarial inputs, at every tile remainder and on
// an unaligned base pointer, and everything they return must be physical.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "rshc/check/check.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace {

using namespace rshc;

constexpr double kGamma = 5.0 / 3.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Lengths around the 64-zone tile: empty, sub-tile, one tile +- 1, many.
const std::size_t kLengths[] = {0, 1, 7, 63, 64, 65, 1000};

/// SoA columns with one spare leading slot, so the same data can be
/// handed over at an aligned or a one-double-offset base pointer.
struct Columns {
  std::vector<std::vector<double>> col;
  Columns(int nvars, std::size_t n)
      : col(static_cast<std::size_t>(nvars), std::vector<double>(n + 1)) {}
  double* at(int v, std::size_t off) {
    return col[static_cast<std::size_t>(v)].data() + off;
  }
};

// The checker (RSHC_CHECKS=ON builds) inspects every c2p output; count its
// reports instead of aborting, so extreme-but-legal states (W > 1e6 at the
// causal limit) do not end the run. The physicality asserted below is the
// test's own.
class C2PLanes : public ::testing::Test {
 protected:
  void SetUp() override {
    check::reset();
    check::set_action(check::Action::kCount);
  }
  void TearDown() override {
    check::set_action(check::Action::kAbort);
    check::reset();
  }
};

double log_uniform(std::mt19937_64& rng, double lo_exp, double hi_exp) {
  std::uniform_real_distribution<double> u(lo_exp, hi_exp);
  return std::pow(10.0, u(rng));
}

/// A random unit vector scaled to `mag`.
void direction(std::mt19937_64& rng, double mag, double& x, double& y,
               double& z) {
  std::normal_distribution<double> g(0.0, 1.0);
  double a = g(rng), b = g(rng), c = g(rng);
  const double r = std::sqrt(a * a + b * b + c * c) + 1e-300;
  x = mag * a / r;
  y = mag * b / r;
  z = mag * c / r;
}

// ---------------------------------------------------------------------------
// SRHD
// ---------------------------------------------------------------------------

std::vector<srhd::Cons> srhd_states(std::size_t n, std::uint64_t seed,
                                    const srhd::Con2PrimOptions& opt) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> kind(0, 9);
  const eos::IdealGas eos(kGamma);
  std::vector<srhd::Cons> out(n);
  for (auto& u : out) {
    // Physical state: W <= 50, p/rho over 16 decades.
    srhd::Prim w;
    w.rho = log_uniform(rng, -12.0, 3.0);
    w.p = w.rho * log_uniform(rng, -8.0, 8.0);
    const double W = 1.0 + (50.0 - 1.0) * std::uniform_real_distribution<>(
                                              0.0, 1.0)(rng);
    direction(rng, std::sqrt(1.0 - 1.0 / (W * W)), w.vx, w.vy, w.vz);
    u = srhd::prim_to_cons(w, eos);
    switch (kind(rng)) {
      case 0: {  // a non-finite component
        const double bad = (rng() & 1) != 0 ? kNaN : -kInf;
        double* c[] = {&u.d, &u.sx, &u.sy, &u.sz, &u.tau};
        *c[rng() % 5] = bad;
        break;
      }
      case 1:  // negative tau
        u.tau = -u.tau * log_uniform(rng, -3.0, 1.0);
        break;
      case 2:  // D at or below the floor
        u.d = (rng() & 1) != 0 ? opt.rho_floor : -u.d;
        break;
      case 3: {  // |S| at the causal limit |S| = tau + D (and a hair past)
        const double e = u.tau + u.d;
        const double s = std::sqrt(u.s_sq()) + 1e-300;
        const double k = e * (1.0 + (static_cast<double>(rng() % 3) - 1.0) *
                                        1e-12) / s;
        u.sx *= k;
        u.sy *= k;
        u.sz *= k;
        break;
      }
      default:  // keep the physical state
        break;
    }
  }
  return out;
}

struct SrhdOut {
  std::vector<double> rho, vx, vy, vz, p;
  srhd::kernels::BatchStats stats;
  explicit SrhdOut(std::size_t n) : rho(n), vx(n), vy(n), vz(n), p(n) {}
};

SrhdOut srhd_per_zone(const std::vector<srhd::Cons>& in,
                      const srhd::Con2PrimOptions& opt) {
  const eos::IdealGas eos(kGamma);
  SrhdOut o(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto r = srhd::cons_to_prim(in[i], eos, opt);
    o.rho[i] = r.prim.rho;
    o.vx[i] = r.prim.vx;
    o.vy[i] = r.prim.vy;
    o.vz[i] = r.prim.vz;
    o.p[i] = r.prim.p;
    o.stats.total_iterations += r.iterations;
    o.stats.failures += r.floored ? 1 : 0;
  }
  return o;
}

using SrhdKernel = srhd::kernels::BatchStats (*)(
    std::size_t, const double*, const double*, const double*, const double*,
    const double*, double*, double*, double*, double*, double*, double,
    const srhd::Con2PrimOptions&);

SrhdOut srhd_batched(SrhdKernel kernel, const std::vector<srhd::Cons>& in,
                     std::size_t off, const srhd::Con2PrimOptions& opt) {
  const std::size_t n = in.size();
  Columns u(5, n), w(5, n);
  for (std::size_t i = 0; i < n; ++i) {
    u.at(0, off)[i] = in[i].d;
    u.at(1, off)[i] = in[i].sx;
    u.at(2, off)[i] = in[i].sy;
    u.at(3, off)[i] = in[i].sz;
    u.at(4, off)[i] = in[i].tau;
  }
  SrhdOut o(n);
  o.stats = kernel(n, u.at(0, off), u.at(1, off), u.at(2, off), u.at(3, off),
                   u.at(4, off), w.at(0, off), w.at(1, off), w.at(2, off),
                   w.at(3, off), w.at(4, off), kGamma, opt);
  const std::size_t bytes = n * sizeof(double);
  if (n > 0) {
    std::memcpy(o.rho.data(), w.at(0, off), bytes);
    std::memcpy(o.vx.data(), w.at(1, off), bytes);
    std::memcpy(o.vy.data(), w.at(2, off), bytes);
    std::memcpy(o.vz.data(), w.at(3, off), bytes);
    std::memcpy(o.p.data(), w.at(4, off), bytes);
  }
  return o;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_physical(const std::vector<double>& rho,
                     const std::vector<double>& vx,
                     const std::vector<double>& vy,
                     const std::vector<double>& vz,
                     const std::vector<double>& p, double rho_floor,
                     double p_floor) {
  for (std::size_t i = 0; i < rho.size(); ++i) {
    const double v2 = vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i];
    ASSERT_GE(rho[i], rho_floor) << "zone " << i;
    ASSERT_GE(p[i], p_floor) << "zone " << i;
    ASSERT_TRUE(std::isfinite(rho[i]) && std::isfinite(p[i])) << "zone " << i;
    ASSERT_LT(v2, 1.0) << "zone " << i;
  }
}

TEST_F(C2PLanes, SrhdTileSolversMatchPerZoneBitwise) {
  const srhd::Con2PrimOptions opt;
  const SrhdKernel kernels[] = {&srhd::kernels::simd::cons_to_prim_n,
                                &srhd::kernels::scalar::cons_to_prim_n};
  long long iters = 0, floors = 0, zones = 0;
  for (const std::size_t n : kLengths) {
    const auto in = srhd_states(n, 0x5eed0000u + n, opt);
    const SrhdOut ref = srhd_per_zone(in, opt);
    iters += ref.stats.total_iterations;
    floors += ref.stats.failures;
    zones += static_cast<long long>(n);
    for (const SrhdKernel kernel : kernels) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " offset=" << off << " variant="
                     << (kernel == kernels[0] ? "simd" : "scalar"));
        const SrhdOut got = srhd_batched(kernel, in, off, opt);
        EXPECT_TRUE(same_bits(got.rho, ref.rho));
        EXPECT_TRUE(same_bits(got.vx, ref.vx));
        EXPECT_TRUE(same_bits(got.vy, ref.vy));
        EXPECT_TRUE(same_bits(got.vz, ref.vz));
        EXPECT_TRUE(same_bits(got.p, ref.p));
        EXPECT_EQ(got.stats.total_iterations, ref.stats.total_iterations);
        EXPECT_EQ(got.stats.failures, ref.stats.failures);
        expect_physical(got.rho, got.vx, got.vy, got.vz, got.p,
                        opt.rho_floor, opt.p_floor);
      }
    }
  }
  // The fuzz mix must reach both outcomes, or it tests nothing.
  EXPECT_GT(floors, 0);
  EXPECT_LT(floors, zones);
  EXPECT_GT(iters, zones - floors);
}

// ---------------------------------------------------------------------------
// SRMHD
// ---------------------------------------------------------------------------

std::vector<srmhd::Cons> srmhd_states(std::size_t n, std::uint64_t seed,
                                      const srmhd::Con2PrimOptions& opt) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> kind(0, 9);
  const eos::IdealGas eos(kGamma);
  std::vector<srmhd::Cons> out(n);
  for (auto& u : out) {
    srmhd::Prim w;
    w.rho = log_uniform(rng, -4.0, 2.0);
    w.p = w.rho * log_uniform(rng, -6.0, 4.0);
    const double W = 1.0 + 19.0 * std::uniform_real_distribution<>(
                                      0.0, 1.0)(rng);
    direction(rng, std::sqrt(1.0 - 1.0 / (W * W)), w.vx, w.vy, w.vz);
    // Magnetization sigma = B^2 / rho from 1e-4 to 1e4.
    direction(rng, std::sqrt(w.rho * log_uniform(rng, -4.0, 4.0)), w.bx,
              w.by, w.bz);
    w.psi = std::uniform_real_distribution<>(-1.0, 1.0)(rng);
    u = srmhd::prim_to_cons(w, eos);
    switch (kind(rng)) {
      case 0: {  // a non-finite component
        const double bad = (rng() & 1) != 0 ? kNaN : kInf;
        double* c[] = {&u.d, &u.sx, &u.sy, &u.sz, &u.tau, &u.bx, &u.by, &u.bz};
        *c[rng() % 8] = bad;
        break;
      }
      case 1:  // negative tau
        u.tau = -u.tau * log_uniform(rng, -3.0, 1.0);
        break;
      case 2:  // D at or below the floor
        u.d = (rng() & 1) != 0 ? opt.rho_floor : -u.d;
        break;
      case 3: {
        // |S| far beyond tau + D + B^2: z_hi starts unphysical and the
        // bracket expansion runs (past its 200 doublings at the top end).
        const double e = std::abs(u.tau + u.d) + u.b_sq() + 1.0;
        double sx = 0.0, sy = 0.0, sz = 0.0;
        direction(rng, e * log_uniform(rng, 0.5, 80.0), sx, sy, sz);
        u.sx = sx;
        u.sy = sy;
        u.sz = sz;
        break;
      }
      case 4: {  // sigma >> 1 on top of a cold, slow fluid
        const double b = std::sqrt(w.rho * log_uniform(rng, 4.0, 8.0));
        direction(rng, b, w.bx, w.by, w.bz);
        u = srmhd::prim_to_cons(w, eos);
        break;
      }
      default:
        break;
    }
  }
  return out;
}

struct SrmhdOut {
  std::vector<std::vector<double>> w;  // rho vx vy vz p bx by bz psi
  srmhd::kernels::BatchStats stats;
  explicit SrmhdOut(std::size_t n) : w(9, std::vector<double>(n)) {}
};

SrmhdOut srmhd_per_zone(const std::vector<srmhd::Cons>& in,
                        const srmhd::Con2PrimOptions& opt) {
  const eos::IdealGas eos(kGamma);
  SrmhdOut o(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto r = srmhd::cons_to_prim(in[i], eos, opt);
    const double v[] = {r.prim.rho, r.prim.vx, r.prim.vy,
                        r.prim.vz,  r.prim.p,  r.prim.bx,
                        r.prim.by,  r.prim.bz, r.prim.psi};
    for (std::size_t k = 0; k < 9; ++k) o.w[k][i] = v[k];
    o.stats.total_iterations += r.iterations;
    o.stats.failures += r.floored ? 1 : 0;
  }
  return o;
}

SrmhdOut srmhd_batched(const std::vector<srmhd::Cons>& in, std::size_t off,
                       const srmhd::Con2PrimOptions& opt) {
  const std::size_t n = in.size();
  Columns u(9, n), w(9, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v[] = {in[i].d,  in[i].sx, in[i].sy, in[i].sz, in[i].tau,
                        in[i].bx, in[i].by, in[i].bz, in[i].psi};
    for (int k = 0; k < 9; ++k) u.at(k, off)[i] = v[k];
  }
  SrmhdOut o(n);
  o.stats = srmhd::kernels::simd::cons_to_prim_n(
      n, u.at(0, off), u.at(1, off), u.at(2, off), u.at(3, off), u.at(4, off),
      u.at(5, off), u.at(6, off), u.at(7, off), u.at(8, off), w.at(0, off),
      w.at(1, off), w.at(2, off), w.at(3, off), w.at(4, off), w.at(5, off),
      w.at(6, off), w.at(7, off), w.at(8, off), kGamma, opt);
  for (int k = 0; k < 9; ++k) {
    if (n > 0) {
      std::memcpy(o.w[static_cast<std::size_t>(k)].data(), w.at(k, off),
                  n * sizeof(double));
    }
  }
  return o;
}

TEST_F(C2PLanes, SrmhdTileSolverMatchesPerZoneBitwise) {
  const srmhd::Con2PrimOptions opt;
  const eos::IdealGas eos(kGamma);
  long long floors = 0, zones = 0, expanded = 0;
  for (const std::size_t n : kLengths) {
    const auto in = srmhd_states(n, 0x3a9d0000u + n, opt);
    const SrmhdOut ref = srmhd_per_zone(in, opt);
    floors += ref.stats.failures;
    zones += static_cast<long long>(n);
    namespace d = srmhd::detail;
    for (const auto& u : in) {
      const double z_hi = d::c2p_z_hi(u, d::c2p_z_lo(u));
      expanded += d::c2p_admissible(u, opt) &&
                  d::below_root(d::c2p_evaluate(u, z_hi, eos));
    }
    for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " offset=" << off);
      const SrmhdOut got = srmhd_batched(in, off, opt);
      for (std::size_t k = 0; k < 9; ++k) {
        EXPECT_TRUE(same_bits(got.w[k], ref.w[k])) << "variable " << k;
      }
      EXPECT_EQ(got.stats.total_iterations, ref.stats.total_iterations);
      EXPECT_EQ(got.stats.failures, ref.stats.failures);
      expect_physical(got.w[0], got.w[1], got.w[2], got.w[3], got.w[4],
                      opt.rho_floor, opt.p_floor);
    }
  }
  EXPECT_GT(expanded, 0);  // the bracket expansion ran
  EXPECT_GT(floors, 0);
  EXPECT_LT(floors, zones);
}

}  // namespace
