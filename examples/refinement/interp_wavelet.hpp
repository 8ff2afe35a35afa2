#pragma once
// Interpolating-wavelet multiresolution analysis (Donoho 1992 /
// Deslauriers-Dubuc 4-point family) on dyadic grids — the adaptive-
// representation substrate of the wavelet-multiresolution line of work
// adjacent to this paper ("Relativistic Hydrodynamics with Wavelets",
// Anderson et al.). Detail coefficients measure the local interpolation
// error of the solution; thresholding them yields a sparse representation
// whose points concentrate where the solution has structure (shocks,
// contacts) — the criterion wavelet-adaptive HRSC codes refine on.
//
// Grids hold 2^levels + 1 points. The transform is the in-place lifting
// form: at each level the odd points are replaced by their deviation from
// the cubic interpolation of the neighbouring even points (exact for
// polynomials up to degree 3, so smooth regions compress aggressively).

#include <cstddef>
#include <span>

namespace rshc::wavelet {

/// Number of points of a `levels`-deep dyadic grid: 2^levels + 1.
[[nodiscard]] std::size_t grid_size(int levels);

/// Number of levels for a point count n = 2^J + 1; throws if n is not of
/// that form (or too small: levels >= 1).
[[nodiscard]] int levels_for_size(std::size_t n);

/// In-place forward transform: after the call, even multiples of
/// 2^levels hold scaling coefficients and all other entries hold detail
/// coefficients of their level.
void forward(std::span<double> v, int levels);

/// In-place inverse transform (exact inverse of forward()).
void inverse(std::span<double> v, int levels);

struct Compression {
  std::size_t total = 0;     ///< detail coefficients examined
  std::size_t kept = 0;      ///< details with |d| >= eps
  double max_dropped = 0.0;  ///< largest zeroed coefficient
  [[nodiscard]] double compression_ratio() const {
    return kept > 0 ? static_cast<double>(total) / static_cast<double>(kept)
                    : static_cast<double>(total);
  }
};

/// Zero detail coefficients with |d| < eps (scaling coefficients are
/// always kept). Call between forward() and inverse().
Compression threshold(std::span<double> coeffs, int levels, double eps);

/// Convenience: forward -> threshold(eps) -> inverse on a copy of
/// `values` into `out`; returns the compression stats. `out` may alias
/// `values`.
Compression compress_roundtrip(std::span<const double> values, double eps,
                               std::span<double> out);

}  // namespace rshc::wavelet
