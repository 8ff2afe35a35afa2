#pragma once
// Small branch-light math helpers shared by reconstruction and physics
// kernels. All are constexpr-friendly and safe to call inside SIMD loops.

#include <algorithm>
#include <cmath>
#include <limits>

namespace rshc {

[[nodiscard]] constexpr double sq(double x) { return x * x; }
[[nodiscard]] constexpr double cube(double x) { return x * x * x; }

[[nodiscard]] constexpr double sign(double x) {
  return (x > 0.0) - (x < 0.0);
}

/// std::max / std::min by value, with exactly their semantics
/// (std::max(a, b) is `a < b ? b : a`, std::min(a, b) is `b < a ? b : a`,
/// NaN handling included), for the lane-wise kernels: GCC does not
/// if-convert the by-reference std:: forms over lane arrays.
[[nodiscard]] constexpr double max_of(double a, double b) {
  return a < b ? b : a;
}
[[nodiscard]] constexpr double min_of(double a, double b) {
  return b < a ? b : a;
}
/// std::clamp by value: libstdc++'s std::clamp(v, lo, hi) is
/// std::min(std::max(v, lo), hi), NaN handling included.
[[nodiscard]] constexpr double clamp_of(double v, double lo, double hi) {
  return min_of(max_of(v, lo), hi);
}

/// std::isfinite as a plain comparison, so it vectorizes.
[[nodiscard]] inline bool is_finite(double x) {
  return std::abs(x) <= std::numeric_limits<double>::max();
}

// The limiters are by-value selects: both candidates are computed and the
// test picks one, with the values of the early-return forms (NaN and -0.0
// included), so the lane-wise reconstruction kernels vectorize them.

/// minmod limiter of two arguments: 0 unless a and b share a sign, else
/// the one of smaller magnitude (b on a tie).
[[nodiscard]] constexpr double minmod(double a, double b) {
  const double pick = std::abs(a) < std::abs(b) ? a : b;
  return a * b <= 0.0 ? 0.0 : pick;
}

/// minmod limiter of three arguments.
[[nodiscard]] constexpr double minmod3(double a, double b, double c) {
  return minmod(a, minmod(b, c));
}

/// Monotonized-central (MC) limited slope from left/right differences.
[[nodiscard]] constexpr double mc_slope(double dqm, double dqp) {
  return minmod3(0.5 * (dqm + dqp), 2.0 * dqm, 2.0 * dqp);
}

/// van Leer (harmonic) limited slope from left/right differences. The
/// discarded harmonic mean may be 0/0 or inf; the select drops it.
[[nodiscard]] inline double van_leer_slope(double dqm, double dqp) {
  const double prod = dqm * dqp;
  const double harmonic = 2.0 * prod / (dqm + dqp);
  return prod <= 0.0 ? 0.0 : harmonic;
}

/// Relative difference |a-b| / max(|a|,|b|,floor).
[[nodiscard]] inline double rel_diff(double a, double b,
                                     double floor = 1e-300) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

/// True if |a-b| <= atol + rtol*max(|a|,|b|).
[[nodiscard]] inline bool close(double a, double b, double rtol = 1e-12,
                                double atol = 1e-14) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

}  // namespace rshc
