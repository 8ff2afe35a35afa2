// Reconstruction schemes: exactness, accuracy, and monotonicity properties.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/recon/reconstruct.hpp"

namespace {

using namespace rshc;
using recon::Method;

const std::vector<Method> kAllMethods = {
    Method::kPCM,       Method::kPLMMinmod, Method::kPLMMC,
    Method::kPLMVanLeer, Method::kPPM,       Method::kWENO5};
// Every method but WENO5, which is ENO, not TVD.
const std::vector<Method> kTvdMethods = {Method::kPCM, Method::kPLMMinmod,
                                         Method::kPLMMC, Method::kPLMVanLeer,
                                         Method::kPPM};

struct Recon {
  std::vector<double> ql, qr;
  explicit Recon(Method m, const std::vector<double>& q)
      : ql(q.size()), qr(q.size()) {
    recon::reconstruct(m, q, ql, qr);
  }
};

class EveryMethod : public ::testing::TestWithParam<Method> {};
class TvdMethod : public EveryMethod {};

TEST_P(EveryMethod, ReproducesConstants) {
  const std::vector<double> q(16, 3.7);
  Recon r(GetParam(), q);
  const int rad = recon::stencil_radius(GetParam());
  for (std::size_t i = rad; i + rad < q.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.ql[i], 3.7);
    EXPECT_DOUBLE_EQ(r.qr[i], 3.7);
  }
}

TEST_P(TvdMethod, FaceValuesStayWithinNeighbourRange) {
  // Monotonicity-preservation property: on arbitrary data, TVD-limited
  // schemes must not create face values outside the local 3-cell envelope.
  // WENO5 gets a separate boundedness test below.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  std::vector<double> q(64);
  for (auto& x : q) x = u(rng);
  Recon r(GetParam(), q);
  const int rad = recon::stencil_radius(GetParam());
  constexpr double tol = 1e-12;
  for (std::size_t i = rad; i + rad < q.size(); ++i) {
    const double lo =
        std::min({q[i - (rad > 0 ? 1 : 0)], q[i], q[i + (rad > 0 ? 1 : 0)]});
    const double hi =
        std::max({q[i - (rad > 0 ? 1 : 0)], q[i], q[i + (rad > 0 ? 1 : 0)]});
    EXPECT_GE(r.ql[i], lo - tol) << "cell " << i;
    EXPECT_LE(r.ql[i], hi + tol) << "cell " << i;
    EXPECT_GE(r.qr[i], lo - tol) << "cell " << i;
    EXPECT_LE(r.qr[i], hi + tol) << "cell " << i;
  }
}

TEST(Recon, Weno5StaysBoundedByStencilConvexity) {
  // WENO5 face values are convex combinations of three quadratic
  // interpolants; on data in [0, 10] they stay within a stencil-bounded
  // envelope even if not strictly TVD.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  std::vector<double> q(64);
  for (auto& x : q) x = u(rng);
  Recon r(Method::kWENO5, q);
  for (std::size_t i = 2; i + 2 < q.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.ql[i]));
    EXPECT_TRUE(std::isfinite(r.qr[i]));
    EXPECT_GT(r.qr[i], -25.0);
    EXPECT_LT(r.qr[i], 35.0);
  }
}

TEST_P(EveryMethod, NameRoundTrips) {
  const Method m = GetParam();
  EXPECT_EQ(recon::parse_method(recon::method_name(m)), m);
}

TEST_P(EveryMethod, GhostWidthIsStencilPlusOne) {
  EXPECT_EQ(recon::ghost_width(GetParam()),
            recon::stencil_radius(GetParam()) + 1);
}

INSTANTIATE_TEST_SUITE_P(Methods, EveryMethod,
                         ::testing::ValuesIn(kAllMethods));
INSTANTIATE_TEST_SUITE_P(Methods, TvdMethod, ::testing::ValuesIn(kTvdMethods));

TEST(Recon, PlmReproducesLinearProfilesExactly) {
  std::vector<double> q(16);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = 2.0 + 0.5 * static_cast<double>(i);
  }
  for (const Method m :
       {Method::kPLMMinmod, Method::kPLMMC, Method::kPLMVanLeer,
        Method::kPPM, Method::kWENO5}) {
    Recon r(m, q);
    const int rad = recon::stencil_radius(m);
    for (std::size_t i = rad; i + rad < q.size(); ++i) {
      EXPECT_NEAR(r.ql[i], q[i] - 0.25, 1e-11) << recon::method_name(m);
      EXPECT_NEAR(r.qr[i], q[i] + 0.25, 1e-11) << recon::method_name(m);
    }
  }
}

TEST(Recon, PcmIsFirstOrderFlat) {
  std::vector<double> q{1.0, 2.0, 4.0, 8.0};
  Recon r(Method::kPCM, q);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.ql[i], q[i]);
    EXPECT_DOUBLE_EQ(r.qr[i], q[i]);
  }
}

TEST(Recon, PpmFlattensLocalExtrema) {
  std::vector<double> q{0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0};
  Recon r(Method::kPPM, q);
  EXPECT_DOUBLE_EQ(r.ql[2], 1.0);  // extremum cell is flattened
  EXPECT_DOUBLE_EQ(r.qr[2], 1.0);
}

/// Face-interpolation accuracy on a smooth profile: measure the error of
/// the right-face value against the analytic point value and check the
/// convergence rate between two resolutions.
double face_error(Method m, int n) {
  // Cell averages of sin(2 pi x) on [0, 1]: (cos(a) - cos(b)) / (b - a)
  // with the 2 pi folded in.
  std::vector<double> q(static_cast<std::size_t>(n));
  const double h = 1.0 / n;
  constexpr double k = 2.0 * std::numbers::pi;
  for (int i = 0; i < n; ++i) {
    const double a = i * h;
    const double b = (i + 1) * h;
    q[static_cast<std::size_t>(i)] =
        (std::cos(k * a) - std::cos(k * b)) / (k * h);
  }
  Recon r(m, q);
  const int rad = recon::stencil_radius(m);
  double worst = 0.0;
  for (int i = rad; i + rad < n; ++i) {
    const double exact = std::sin(k * (i + 1) * h);
    worst = std::max(worst,
                     std::abs(r.qr[static_cast<std::size_t>(i)] - exact));
  }
  return worst;
}

TEST(Recon, Weno5FaceAccuracyIsHighOrder) {
  const double e1 = face_error(Method::kWENO5, 32);
  const double e2 = face_error(Method::kWENO5, 64);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 4.0) << "e1=" << e1 << " e2=" << e2;
}

TEST(Recon, PpmFaceAccuracyBeatsPlm) {
  const double eppm = face_error(Method::kPPM, 64);
  const double eplm = face_error(Method::kPLMMC, 64);
  EXPECT_LT(eppm, eplm);
}

TEST(Recon, AccuracyOrderingOnSmoothData) {
  const double epcm = face_error(Method::kPCM, 64);
  const double eplm = face_error(Method::kPLMMC, 64);
  const double eweno = face_error(Method::kWENO5, 64);
  EXPECT_LT(eplm, epcm);
  EXPECT_LT(eweno, eplm);
}

TEST(Recon, RejectsMismatchedOutputSizes) {
  std::vector<double> q(8), ql(7), qr(8);
  EXPECT_THROW(recon::reconstruct(Method::kPCM, q, ql, qr), Error);
}

TEST(Recon, ParseRejectsUnknownName) {
  EXPECT_THROW((void)recon::parse_method("upwind-magic"), Error);
  EXPECT_EQ(recon::parse_method("plm"), Method::kPLMMC);  // alias
}

TEST(Recon, FormalOrdersAreMonotone) {
  EXPECT_EQ(recon::formal_order(Method::kPCM), 1);
  EXPECT_LT(recon::formal_order(Method::kPCM),
            recon::formal_order(Method::kPLMMC));
  EXPECT_LT(recon::formal_order(Method::kPPM),
            recon::formal_order(Method::kWENO5));
}

}  // namespace
