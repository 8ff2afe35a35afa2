// Scalar/SIMD kernel-variant equivalence: both translation units must
// produce (bitwise-close) identical physics on identical batches — the
// invariant the scalar baseline and the batched pipelines rely on.

#include <gtest/gtest.h>

#include <random>

#include "rshc/srhd/kernels.hpp"

namespace {

using namespace rshc;
namespace k = srhd::kernels;

constexpr double kGamma = 5.0 / 3.0;

struct Batch {
  std::vector<double> rho, vx, vy, vz, p;
  std::vector<double> d, sx, sy, sz, tau;

  explicit Batch(std::size_t n, unsigned seed = 1234) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> urho(0.1, 10.0);
    std::uniform_real_distribution<double> uv(-0.55, 0.55);
    std::uniform_real_distribution<double> up(1e-3, 100.0);
    rho.resize(n); vx.resize(n); vy.resize(n); vz.resize(n); p.resize(n);
    d.resize(n); sx.resize(n); sy.resize(n); sz.resize(n); tau.resize(n);
    const eos::IdealGas eos(kGamma);
    for (std::size_t i = 0; i < n; ++i) {
      srhd::Prim w{urho(rng), uv(rng), uv(rng), uv(rng), up(rng)};
      rho[i] = w.rho; vx[i] = w.vx; vy[i] = w.vy; vz[i] = w.vz; p[i] = w.p;
      const srhd::Cons u = srhd::prim_to_cons(w, eos);
      d[i] = u.d; sx[i] = u.sx; sy[i] = u.sy; sz[i] = u.sz; tau[i] = u.tau;
    }
  }
};

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, PrimToConsMatchesAcrossVariants) {
  const std::size_t n = GetParam();
  Batch b(n);
  std::vector<double> d1(n), sx1(n), sy1(n), sz1(n), tau1(n);
  std::vector<double> d2(n), sx2(n), sy2(n), sz2(n), tau2(n);
  k::scalar::prim_to_cons_n(n, b.rho.data(), b.vx.data(), b.vy.data(),
                            b.vz.data(), b.p.data(), d1.data(), sx1.data(),
                            sy1.data(), sz1.data(), tau1.data(), kGamma);
  k::simd::prim_to_cons_n(n, b.rho.data(), b.vx.data(), b.vy.data(),
                          b.vz.data(), b.p.data(), d2.data(), sx2.data(),
                          sy2.data(), sz2.data(), tau2.data(), kGamma);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d1[i], d2[i], 1e-13 * std::abs(d1[i]));
    EXPECT_NEAR(tau1[i], tau2[i], 1e-12 * std::max(1.0, std::abs(tau1[i])));
    // Reference against the struct API as well.
    EXPECT_NEAR(d1[i], b.d[i], 1e-12 * b.d[i]);
  }
}

TEST_P(KernelEquivalence, ConsToPrimMatchesAcrossVariants) {
  const std::size_t n = GetParam();
  Batch b(n);
  std::vector<double> r1(n), vx1(n), vy1(n), vz1(n), p1(n);
  std::vector<double> r2(n), vx2(n), vy2(n), vz2(n), p2(n);
  const srhd::Con2PrimOptions opt;
  const auto s1 = k::scalar::cons_to_prim_n(
      n, b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(), b.tau.data(),
      r1.data(), vx1.data(), vy1.data(), vz1.data(), p1.data(), kGamma, opt);
  const auto s2 = k::simd::cons_to_prim_n(
      n, b.d.data(), b.sx.data(), b.sy.data(), b.sz.data(), b.tau.data(),
      r2.data(), vx2.data(), vy2.data(), vz2.data(), p2.data(), kGamma, opt);
  EXPECT_EQ(s1.failures, 0);
  EXPECT_EQ(s2.failures, 0);
  EXPECT_EQ(s1.total_iterations, s2.total_iterations);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1[i], r2[i], 1e-12 * r1[i]);
    EXPECT_NEAR(p1[i], p2[i], 1e-12 * p1[i]);
    EXPECT_NEAR(vx1[i], vx2[i], 1e-12);
    // Roundtrip accuracy vs the original batch.
    EXPECT_NEAR(r1[i], b.rho[i], 1e-7 * b.rho[i]);
    EXPECT_NEAR(p1[i], b.p[i], 1e-7 * b.p[i]);
  }
}

TEST_P(KernelEquivalence, MaxSpeedMatchesStructApi) {
  const std::size_t n = GetParam();
  Batch b(n);
  std::vector<double> sp1(n), sp2(n);
  k::scalar::max_speed_n(n, b.rho.data(), b.vx.data(), b.vy.data(),
                         b.vz.data(), b.p.data(), sp1.data(), kGamma, 3);
  k::simd::max_speed_n(n, b.rho.data(), b.vx.data(), b.vy.data(),
                       b.vz.data(), b.p.data(), sp2.data(), kGamma, 3);
  const eos::IdealGas eos(kGamma);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sp1[i], sp2[i], 1e-13);
    const srhd::Prim w{b.rho[i], b.vx[i], b.vy[i], b.vz[i], b.p[i]};
    EXPECT_NEAR(sp1[i], srhd::max_signal_speed(w, eos, 3), 1e-12);
    EXPECT_LT(sp1[i], 1.0);
  }
}

TEST_P(KernelEquivalence, FluxMatchesStructApiAllAxes) {
  const std::size_t n = GetParam();
  Batch b(n);
  const eos::IdealGas eos(kGamma);
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<double> fd(n), fsx(n), fsy(n), fsz(n), ftau(n);
    k::simd::flux_n(n, axis, b.rho.data(), b.vx.data(), b.vy.data(),
                    b.vz.data(), b.p.data(), b.d.data(), b.sx.data(),
                    b.sy.data(), b.sz.data(), b.tau.data(), fd.data(),
                    fsx.data(), fsy.data(), fsz.data(), ftau.data());
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 7)) {
      const srhd::Prim w{b.rho[i], b.vx[i], b.vy[i], b.vz[i], b.p[i]};
      const srhd::Cons u{b.d[i], b.sx[i], b.sy[i], b.sz[i], b.tau[i]};
      const srhd::Cons f = srhd::flux(w, u, axis);
      EXPECT_NEAR(fd[i], f.d, 1e-12 * std::max(1.0, std::abs(f.d)));
      EXPECT_NEAR(fsx[i], f.sx, 1e-12 * std::max(1.0, std::abs(f.sx)));
      EXPECT_NEAR(fsy[i], f.sy, 1e-12 * std::max(1.0, std::abs(f.sy)));
      EXPECT_NEAR(fsz[i], f.sz, 1e-12 * std::max(1.0, std::abs(f.sz)));
      EXPECT_NEAR(ftau[i], f.tau, 1e-12 * std::max(1.0, std::abs(f.tau)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, KernelEquivalence,
                         ::testing::Values(1u, 3u, 64u, 1000u));

TEST(Kernels, AxpbyBothVariants) {
  const std::size_t n = 100;
  std::vector<double> x(n), y1(n), y2(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y1[i] = y2[i] = 1.0;
  }
  k::scalar::axpby_n(n, 2.0, x.data(), 0.5, y1.data());
  k::simd::axpby_n(n, 2.0, x.data(), 0.5, y2.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y1[i], 2.0 * static_cast<double>(i) + 0.5);
    EXPECT_DOUBLE_EQ(y1[i], y2[i]);
  }
}

TEST(Kernels, ConsToPrimReportsFailures) {
  // One good zone, one evacuated zone: exactly one failure counted.
  std::vector<double> d{1.0, 1e-30}, sx{0.0, 0.0}, sy{0.0, 0.0},
      sz{0.0, 0.0}, tau{1.0, 1e-30};
  std::vector<double> rho(2), vx(2), vy(2), vz(2), p(2);
  const auto stats = k::scalar::cons_to_prim_n(
      2, d.data(), sx.data(), sy.data(), sz.data(), tau.data(), rho.data(),
      vx.data(), vy.data(), vz.data(), p.data(), kGamma, {});
  EXPECT_EQ(stats.failures, 1);
  EXPECT_GT(rho[0], 0.9);
  EXPECT_GT(rho[1], 0.0);  // atmosphere, still usable
}

TEST(Kernels, EmptyBatchIsSafe) {
  const auto stats = k::simd::cons_to_prim_n(
      0, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
      nullptr, nullptr, nullptr, kGamma, {});
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.total_iterations, 0);
  k::scalar::axpby_n(0, 1.0, nullptr, 1.0, nullptr);
}

}  // namespace
