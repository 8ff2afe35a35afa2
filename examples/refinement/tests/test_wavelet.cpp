// Interpolating-wavelet multiresolution: perfect reconstruction,
// polynomial annihilation, thresholding error control, shock
// localization, and the tensor-product (2D) use of the 1D transform —
// the properties a wavelet-adaptive HRSC method rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numbers>
#include <random>
#include <vector>

#include "rshc/common/error.hpp"

#include "interp_wavelet.hpp"

namespace {

using namespace rshc;
namespace w = rshc::wavelet;

std::vector<double> sample(int levels, const std::function<double(double)>& f) {
  const std::size_t n = w::grid_size(levels);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = f(static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return v;
}

/// Smooth n x n field on the unit square, row-major.
std::vector<double> sample_2d(int levels,
                              const std::function<double(double, double)>& f) {
  const std::size_t n = w::grid_size(levels);
  std::vector<double> v(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(n - 1);
      const double y = static_cast<double>(j) / static_cast<double>(n - 1);
      v[j * n + i] = f(x, y);
    }
  }
  return v;
}

/// Tensor-product transform of a square n x n field: the 1D transform
/// along every column (through a strided copy) and along every row. Row
/// and column transforms act on disjoint index sets, so they commute.
void transform_2d(std::vector<double>& v, int levels,
                  void (*transform)(std::span<double>, int)) {
  const std::size_t n = w::grid_size(levels);
  ASSERT_EQ(v.size(), n * n);
  for (std::size_t j = 0; j < n; ++j) {
    transform(std::span<double>(v).subspan(j * n, n), levels);
  }
  std::vector<double> col(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) col[j] = v[j * n + i];
    transform(col, levels);
    for (std::size_t j = 0; j < n; ++j) v[j * n + i] = col[j];
  }
}

TEST(Wavelet, GridSizeAndLevels) {
  EXPECT_EQ(w::grid_size(2), 5u);
  EXPECT_EQ(w::grid_size(10), 1025u);
  EXPECT_EQ(w::levels_for_size(5), 2);
  EXPECT_EQ(w::levels_for_size(1025), 10);
  EXPECT_THROW((void)w::levels_for_size(6), Error);
  EXPECT_THROW((void)w::levels_for_size(4), Error);
  EXPECT_THROW((void)w::grid_size(0), Error);
}

// Each sweep runs over the levels where its property holds.
class LevelSweep : public ::testing::TestWithParam<int> {};
class CubicLevelSweep : public LevelSweep {};
class FineLevelSweep : public LevelSweep {};

TEST_P(LevelSweep, ForwardInverseIsIdentity) {
  const int levels = GetParam();
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(w::grid_size(levels));
  for (auto& x : v) x = u(rng);
  const auto original = v;
  w::forward(v, levels);
  w::inverse(v, levels);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], original[i], 1e-12) << "point " << i;
  }
}

TEST_P(CubicLevelSweep, CubicsHaveZeroInteriorDetails) {
  // The DD4 predictor reproduces cubics exactly: every detail coefficient
  // computed with the full 4-point stencil vanishes. (The coarsest two
  // levels use lower-order stencils, so grids below 4 levels are not
  // swept.)
  const int levels = GetParam();
  auto v = sample(levels, [](double x) {
    return 1.0 + 2.0 * x - 3.0 * x * x + 0.5 * x * x * x;
  });
  w::forward(v, levels);
  // Details of the finest two levels (strides 1 and 2) are all interior-
  // cubic except near the ends; check interior coefficients.
  const std::size_t n = v.size();
  for (std::size_t k = 5; k + 5 < n; k += 2) {
    EXPECT_NEAR(v[k], 0.0, 1e-12) << "fine detail " << k;
  }
}

TEST_P(FineLevelSweep, SmoothFieldsCompressHard) {
  // Detail coefficients of a smooth field scale like h^4 * d4f/dx4, so
  // the fraction below a fixed threshold grows with resolution: only the
  // well-resolved grids are expected to compress.
  const int levels = GetParam();
  auto v = sample(levels, [](double x) {
    return std::sin(2.0 * std::numbers::pi * x);
  });
  std::vector<double> out(v.size());
  const auto c = w::compress_roundtrip(v, 1e-5, out);
  EXPECT_GT(c.compression_ratio(), 4.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(out[i], v[i], 1e-3) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelSweep, ::testing::Values(2, 3, 4, 6, 8));
INSTANTIATE_TEST_SUITE_P(Levels, CubicLevelSweep, ::testing::Values(4, 6, 8));
INSTANTIATE_TEST_SUITE_P(Levels, FineLevelSweep, ::testing::Values(8));

TEST(Wavelet, ThresholdErrorIsControlled) {
  // Reconstruction error after thresholding at eps stays within a small
  // multiple of eps (interpolating wavelets: error ~ C * eps with C O(1)
  // per level).
  const int levels = 8;
  auto v = sample(levels, [](double x) {
    return std::sin(6.0 * x) + 0.3 * std::cos(20.0 * x * x);
  });
  for (const double eps : {1e-3, 1e-5, 1e-7}) {
    std::vector<double> out(v.size());
    w::compress_roundtrip(v, eps, out);
    double worst = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      worst = std::max(worst, std::abs(out[i] - v[i]));
    }
    EXPECT_LT(worst, 20.0 * eps) << "eps=" << eps;
  }
}

TEST(Wavelet, CompressionRatioGrowsWithThreshold) {
  const int levels = 9;
  auto v = sample(levels, [](double x) {
    return std::tanh((x - 0.5) / 0.02);  // sharp front
  });
  std::vector<double> out(v.size());
  const auto loose = w::compress_roundtrip(v, 1e-3, out);
  const auto tight = w::compress_roundtrip(v, 1e-9, out);
  EXPECT_GT(loose.compression_ratio(), tight.compression_ratio());
  EXPECT_GT(loose.compression_ratio(), 10.0);
}

TEST(Wavelet, ActivePointsConcentrateAtTheShock) {
  // Step function: surviving coefficients must cluster around the jump —
  // the refinement criterion a wavelet-adaptive solver uses. A point is
  // active if it is an endpoint or its detail survives the threshold.
  const int levels = 9;
  auto v = sample(levels, [](double x) { return x < 0.5 ? 1.0 : 0.0; });
  const int lv = w::levels_for_size(v.size());
  w::forward(v, lv);
  const auto c = w::threshold(v, lv, 1e-8);
  std::size_t active_near = 0;
  std::size_t active_far = 0;
  const double n1 = static_cast<double>(v.size() - 1);
  for (std::size_t i = 1; i + 1 < v.size(); ++i) {
    if (v[i] == 0.0) continue;
    const double x = static_cast<double>(i) / n1;
    if (std::abs(x - 0.5) < 0.1) {
      ++active_near;
    } else {
      ++active_far;
    }
  }
  EXPECT_EQ(active_near + active_far, c.kept);
  EXPECT_GT(active_near, 0u);
  EXPECT_LT(active_far, active_near);
}

TEST(Wavelet, TwoDimensionalRoundTrip) {
  const int levels = 5;
  auto v = sample_2d(levels, [](double x, double y) {
    return std::sin(3.0 * x) * std::cos(2.0 * y) + x * y;
  });
  const auto original = v;
  transform_2d(v, levels, w::forward);
  // A smooth 2D field must compress in the tensor basis too.
  std::size_t big = 0;
  for (const double c : v) big += std::abs(c) > 1e-6 ? 1 : 0;
  EXPECT_LT(big, v.size() / 2);
  transform_2d(v, levels, w::inverse);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], original[i], 1e-11) << i;
  }
}

TEST(Stress, Wavelet2dThresholdCompressesSmoothField) {
  const int levels = 5;
  auto v = sample_2d(levels,
                     [](double x, double y) { return std::sin(2.0 * x + y); });
  const auto original = v;
  transform_2d(v, levels, w::forward);
  // Threshold the whole lattice (the 2D coefficients live on it).
  std::size_t zeroed = 0;
  for (auto& c : v) {
    if (std::abs(c) < 1e-6) {
      c = 0.0;
      ++zeroed;
    }
  }
  EXPECT_GT(zeroed, v.size() / 3);
  transform_2d(v, levels, w::inverse);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], original[i], 1e-4) << i;
  }
}

TEST(Wavelet, RejectsBadShapes) {
  std::vector<double> v(9);
  EXPECT_THROW(w::forward(v, 2), Error);          // 9 points needs levels=3
  std::vector<double> tiny(3);
  EXPECT_THROW(w::forward(tiny, 1), Error);        // below cubic minimum
  std::vector<double> out(8);
  EXPECT_THROW((void)w::compress_roundtrip(v, 1e-3, out), Error);
}

}  // namespace
