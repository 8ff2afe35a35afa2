// Reconstruction row kernels, compiled -O3 (-march=native when enabled)
// with -ffp-contract=off -fno-math-errno -fno-trapping-math.
//
// Each scheme is one branch-free lane loop over the cells of a row, run
// row by row over a tile: the limiter or face formula inlines into the
// loop body, and every branch of the per-pencil scheme is a select between
// candidates that are all computed (the minmod sign test and magnitude
// pick, van Leer's prod <= 0, PPM's neighbour clip, extremum flattening
// and both overshoot corrections). A lane runs exactly the operation
// sequence of the branchy scheme, in the same order, so it yields the same
// bits: division is correctly rounded and -ffp-contract=off forbids fusing
// mul+add. Discarded candidates may divide by zero; with
// -fno-trapping-math that only produces values the select drops.
// tools/check_vectorized.py guards the vectorization,
// tests/test_recon_lanes.cpp the bits against the branchy oracle
// (tests/support/recon_reference.hpp).

#include "rshc/recon/reconstruct.hpp"

#include "rshc/common/error.hpp"
#include "rshc/common/math.hpp"

namespace rshc::recon {
namespace {

// The row kernels are the unit GCC vectorizes: flatten inlines the limiter
// and face formulas into the loop body, noinline keeps each scheme a
// function of its own. Row r reads q + r*qstride and writes
// ql/qr + r*fstride; the rows are distinct arrays (ivdep).

[[gnu::flatten, gnu::noinline]] void pcm_rows(std::size_t nrows,
                                              std::size_t n, const double* q,
                                              std::size_t qstride, double* ql,
                                              double* qr,
                                              std::size_t fstride) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* s = q + r * qstride;
    double* lo = ql + r * fstride;
    double* hi = qr + r * fstride;
#pragma GCC ivdep
    // rshc: must-vectorize
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = s[i];
      hi[i] = s[i];
    }
  }
}

/// Piecewise linear with the limiter of M (minmod, MC or van Leer).
template <Method M>
[[gnu::flatten, gnu::noinline]] void plm_rows(std::size_t nrows,
                                              std::size_t n, const double* q,
                                              std::size_t qstride, double* ql,
                                              double* qr,
                                              std::size_t fstride) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* s = q + r * qstride;
    double* lo = ql + r * fstride;
    double* hi = qr + r * fstride;
#pragma GCC ivdep
    // rshc: must-vectorize
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double dqm = s[i] - s[i - 1];
      const double dqp = s[i + 1] - s[i];
      double slope;
      if constexpr (M == Method::kPLMMinmod) {
        slope = rshc::minmod(dqm, dqp);
      } else if constexpr (M == Method::kPLMMC) {
        slope = rshc::mc_slope(dqm, dqp);
      } else {
        slope = rshc::van_leer_slope(dqm, dqp);
      }
      lo[i] = s[i] - 0.5 * slope;
      hi[i] = s[i] + 0.5 * slope;
    }
  }
}

/// Colella & Woodward (1984) PPM with the original monotonization: the
/// 4th-order face interpolants clipped into the neighbouring-cell range,
/// flattened at a local extremum, else the overshooting face pulled in.
[[gnu::flatten, gnu::noinline]] void ppm_rows(std::size_t nrows,
                                              std::size_t n, const double* q,
                                              std::size_t qstride, double* ql,
                                              double* qr,
                                              std::size_t fstride) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* s = q + r * qstride;
    double* lo = ql + r * fstride;
    double* hi = qr + r * fstride;
#pragma GCC ivdep
    // rshc: must-vectorize
    for (std::size_t i = 2; i + 2 < n; ++i) {
      const double qm2 = s[i - 2];
      const double qm1 = s[i - 1];
      const double qi = s[i];
      const double qp1 = s[i + 1];
      const double qp2 = s[i + 2];
      // Values at i-1/2 and i+1/2 (face f+1/2 uses cells f-1..f+2).
      const double fm =
          (7.0 / 12.0) * (qm1 + qi) - (1.0 / 12.0) * (qm2 + qp1);
      const double fp =
          (7.0 / 12.0) * (qi + qp1) - (1.0 / 12.0) * (qm1 + qp2);
      const double qm = clamp_of(fm, min_of(qm1, qi), max_of(qm1, qi));
      const double qp = clamp_of(fp, min_of(qi, qp1), max_of(qi, qp1));
      const bool extremum = (qp - qi) * (qi - qm) <= 0.0;
      const double dq = qp - qm;
      const double q6 = 6.0 * (qi - 0.5 * (qm + qp));
      // The scheme's `else if`: the two tests exclude each other
      // (dq * dq >= 0), so both are plain selects.
      const bool over_m = dq * q6 > dq * dq;
      const bool over_p = -dq * dq > dq * q6;
      lo[i] = extremum ? qi : (over_m ? 3.0 * qi - 2.0 * qp : qm);
      hi[i] = extremum ? qi : (over_p ? 3.0 * qi - 2.0 * qm : qp);
    }
  }
}

/// Jiang & Shu (1996) WENO5 value at the right face of cell i, from the
/// 5-point stencil q[i-2..i+2].
double weno5_face(double qm2, double qm1, double q0, double qp1, double qp2) {
  constexpr double eps = 1e-6;
  // Candidate stencils (3rd order each).
  const double f0 = (2.0 * qm2 - 7.0 * qm1 + 11.0 * q0) / 6.0;
  const double f1 = (-qm1 + 5.0 * q0 + 2.0 * qp1) / 6.0;
  const double f2 = (2.0 * q0 + 5.0 * qp1 - qp2) / 6.0;
  // Smoothness indicators.
  const double b0 = (13.0 / 12.0) * rshc::sq(qm2 - 2.0 * qm1 + q0) +
                    0.25 * rshc::sq(qm2 - 4.0 * qm1 + 3.0 * q0);
  const double b1 = (13.0 / 12.0) * rshc::sq(qm1 - 2.0 * q0 + qp1) +
                    0.25 * rshc::sq(qm1 - qp1);
  const double b2 = (13.0 / 12.0) * rshc::sq(q0 - 2.0 * qp1 + qp2) +
                    0.25 * rshc::sq(3.0 * q0 - 4.0 * qp1 + qp2);
  // Nonlinear weights from ideal weights {1,6,3}/10.
  const double a0 = 0.1 / rshc::sq(eps + b0);
  const double a1 = 0.6 / rshc::sq(eps + b1);
  const double a2 = 0.3 / rshc::sq(eps + b2);
  return (a0 * f0 + a1 * f1 + a2 * f2) / (a0 + a1 + a2);
}

[[gnu::flatten, gnu::noinline]] void weno5_rows(std::size_t nrows,
                                                std::size_t n,
                                                const double* q,
                                                std::size_t qstride,
                                                double* ql, double* qr,
                                                std::size_t fstride) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* s = q + r * qstride;
    double* lo = ql + r * fstride;
    double* hi = qr + r * fstride;
#pragma GCC ivdep
    // rshc: must-vectorize
    for (std::size_t i = 2; i + 2 < n; ++i) {
      // Right face upwind-biased from the left; left face mirrored.
      hi[i] = weno5_face(s[i - 2], s[i - 1], s[i], s[i + 1], s[i + 2]);
      lo[i] = weno5_face(s[i + 2], s[i + 1], s[i], s[i - 1], s[i - 2]);
    }
  }
}

}  // namespace

int stencil_radius(Method m) {
  switch (m) {
    case Method::kPCM: return 0;
    case Method::kPLMMinmod:
    case Method::kPLMMC:
    case Method::kPLMVanLeer: return 1;
    case Method::kPPM:
    case Method::kWENO5: return 2;
  }
  return 2;
}

int ghost_width(Method m) { return stencil_radius(m) + 1; }

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kPCM: return "pcm";
    case Method::kPLMMinmod: return "plm-minmod";
    case Method::kPLMMC: return "plm-mc";
    case Method::kPLMVanLeer: return "plm-vanleer";
    case Method::kPPM: return "ppm";
    case Method::kWENO5: return "weno5";
  }
  return "unknown";
}

Method parse_method(std::string_view name) {
  if (name == "pcm") return Method::kPCM;
  if (name == "plm-minmod") return Method::kPLMMinmod;
  if (name == "plm-mc" || name == "plm") return Method::kPLMMC;
  if (name == "plm-vanleer") return Method::kPLMVanLeer;
  if (name == "ppm") return Method::kPPM;
  if (name == "weno5") return Method::kWENO5;
  RSHC_REQUIRE(false, std::string("unknown reconstruction method: ") +
                          std::string(name));
  return Method::kPCM;  // unreachable
}

int formal_order(Method m) {
  switch (m) {
    case Method::kPCM: return 1;
    case Method::kPLMMinmod:
    case Method::kPLMMC:
    case Method::kPLMVanLeer: return 2;
    case Method::kPPM: return 3;  // 3rd order at faces in this MOL setting
    case Method::kWENO5: return 5;
  }
  return 1;
}

void reconstruct(Method m, std::span<const double> q, std::span<double> ql,
                 std::span<double> qr) {
  RSHC_REQUIRE(ql.size() == q.size() && qr.size() == q.size(),
               "reconstruction output size mismatch");
  const std::size_t n = q.size();
  reconstruct_rows(m, 1, n, q.data(), n, ql.data(), qr.data(), n);
}

void reconstruct_rows(Method m, std::size_t nrows, std::size_t n,
                      const double* q, std::size_t qstride, double* ql,
                      double* qr, std::size_t face_stride) {
  switch (m) {
    case Method::kPCM:
      pcm_rows(nrows, n, q, qstride, ql, qr, face_stride);
      return;
    case Method::kPLMMinmod:
      plm_rows<Method::kPLMMinmod>(nrows, n, q, qstride, ql, qr, face_stride);
      return;
    case Method::kPLMMC:
      plm_rows<Method::kPLMMC>(nrows, n, q, qstride, ql, qr, face_stride);
      return;
    case Method::kPLMVanLeer:
      plm_rows<Method::kPLMVanLeer>(nrows, n, q, qstride, ql, qr,
                                    face_stride);
      return;
    case Method::kPPM:
      ppm_rows(nrows, n, q, qstride, ql, qr, face_stride);
      return;
    case Method::kWENO5:
      weno5_rows(nrows, n, q, qstride, ql, qr, face_stride);
      return;
  }
}

}  // namespace rshc::recon
