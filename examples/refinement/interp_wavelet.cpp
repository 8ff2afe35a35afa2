#include "interp_wavelet.hpp"

#include <algorithm>
#include <cmath>

#include "rshc/common/error.hpp"

namespace rshc::wavelet {
namespace {

/// Deslauriers-Dubuc prediction of the odd point at index k = (2m+1) s
/// from the even points (multiples of 2s): Lagrange interpolation at
/// x = m + 1/2 through the 4 nearest even points (clamped window at the
/// boundaries, giving the one-sided stencils; 3-point quadratic on the
/// 5-point level where only 3 even points exist). Exact for cubics in the
/// interior, quadratics on the coarsest cubic-impossible level.
double predict(std::span<const double> v, std::size_t k, std::size_t s2) {
  const std::size_t n = v.size();
  const std::size_t ne = (n - 1) / s2 + 1;  // number of even points
  const std::size_t m = (k - s2 / 2) / s2;  // x = m + 1/2 among evens
  const std::size_t width = std::min<std::size_t>(4, ne);
  // Window start: center the stencil, clamped into range.
  std::size_t j0 = m >= 1 ? m - 1 : 0;
  if (j0 + width > ne) j0 = ne - width;
  const double x = static_cast<double>(m) + 0.5;
  double p = 0.0;
  for (std::size_t a = 0; a < width; ++a) {
    const double xa = static_cast<double>(j0 + a);
    double w = 1.0;
    for (std::size_t b = 0; b < width; ++b) {
      if (b == a) continue;
      const double xb = static_cast<double>(j0 + b);
      w *= (x - xb) / (xa - xb);
    }
    p += w * v[(j0 + a) * s2];
  }
  return p;
}

void check_size(std::size_t n, int levels) {
  RSHC_REQUIRE(levels >= 1 && levels < 60, "wavelet levels out of range");
  RSHC_REQUIRE(n == grid_size(levels),
               "wavelet grid must have 2^levels + 1 points");
  RSHC_REQUIRE(n >= 5, "wavelet grid too small for the cubic stencil");
}

}  // namespace

std::size_t grid_size(int levels) {
  RSHC_REQUIRE(levels >= 1 && levels < 60, "wavelet levels out of range");
  return (static_cast<std::size_t>(1) << levels) + 1;
}

int levels_for_size(std::size_t n) {
  RSHC_REQUIRE(n >= 5, "wavelet grid too small");
  const std::size_t m = n - 1;
  RSHC_REQUIRE((m & (m - 1)) == 0, "wavelet grid must be 2^J + 1 points");
  int levels = 0;
  for (std::size_t x = m; x > 1; x >>= 1) ++levels;
  RSHC_REQUIRE(levels >= 2, "wavelet grid needs at least 2 levels");
  return levels;
}

void forward(std::span<double> v, int levels) {
  check_size(v.size(), levels);
  // Finest to coarsest: stride doubles each level.
  for (int lvl = 0; lvl < levels - 1; ++lvl) {
    const std::size_t s = static_cast<std::size_t>(1) << lvl;
    for (std::size_t k = s; k < v.size(); k += 2 * s) {
      v[k] -= predict(v, k, 2 * s);
    }
  }
  // Coarsest level has 3 points (0, mid, end); the mid point is predicted
  // by linear interpolation of the two endpoints (cubic needs 4 evens).
  const std::size_t s = v.size() / 2;
  v[s] -= 0.5 * (v[0] + v[v.size() - 1]);
}

void inverse(std::span<double> v, int levels) {
  check_size(v.size(), levels);
  const std::size_t s = v.size() / 2;
  v[s] += 0.5 * (v[0] + v[v.size() - 1]);
  for (int lvl = levels - 2; lvl >= 0; --lvl) {
    const std::size_t st = static_cast<std::size_t>(1) << lvl;
    for (std::size_t k = st; k < v.size(); k += 2 * st) {
      v[k] += predict(v, k, 2 * st);
    }
  }
}

Compression threshold(std::span<double> coeffs, int levels, double eps) {
  check_size(coeffs.size(), levels);
  RSHC_REQUIRE(eps >= 0.0, "threshold must be non-negative");
  Compression c;
  // Every index that is not a multiple of 2^levels... the only pure
  // scaling points are 0 and n-1 plus the coarsest midpoint's parents;
  // operationally: all odd multiples of every stride are details.
  for (std::size_t k = 1; k + 1 < coeffs.size(); ++k) {
    // k is a detail index unless it is an endpoint; the coarsest midpoint
    // is also a detail (predicted linearly).
    ++c.total;
    if (std::abs(coeffs[k]) < eps) {
      c.max_dropped = std::max(c.max_dropped, std::abs(coeffs[k]));
      coeffs[k] = 0.0;
    } else {
      ++c.kept;
    }
  }
  return c;
}

Compression compress_roundtrip(std::span<const double> values, double eps,
                               std::span<double> out) {
  RSHC_REQUIRE(values.size() == out.size(),
               "compress_roundtrip size mismatch");
  const int levels = levels_for_size(values.size());
  std::copy(values.begin(), values.end(), out.begin());
  forward(out, levels);
  const Compression c = threshold(out, levels, eps);
  inverse(out, levels);
  return c;
}

}  // namespace rshc::wavelet
