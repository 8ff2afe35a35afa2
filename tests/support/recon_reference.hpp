#pragma once
// Reconstruction schemes written as plain branchy per-pencil code: the test
// oracle the lane-wise row kernels (src/recon/reconstruct.cpp) are pinned
// against bitwise, and the reconstruction the per-pencil stepper
// (pencil_reference.hpp) runs. Each limiter returns early and each PPM
// correction is an `if`, the most literal reading of the scheme; the
// kernels turn every branch into a select over candidates they all
// compute, so any ulp of drift between the two means a kernel reordered or
// reassociated something. Nothing here calls the library's limiters
// (rshc::minmod and friends), which the kernels use.
//
// Bits: test TUs compile with the tree-default flags (no FMA contraction
// on the x86-64 baseline), the kernel TU with -ffp-contract=off, so both
// evaluate the same correctly rounded operation sequence.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "rshc/common/error.hpp"
#include "rshc/recon/reconstruct.hpp"

namespace rshc::testsupport::recon_reference {

/// How often each branch was taken, summed over the calls that were given
/// it (for the conformance test's coverage assertions).
struct Branches {
  long minmod_zero = 0;  // a * b <= 0: no slope
  long minmod_a = 0;     // |a| < |b|
  long minmod_b = 0;     // otherwise (NaN included)
  long minmod_tie = 0;   // ... with |a| == |b|
  long vanleer_zero = 0;
  long vanleer_mean = 0;
  long ppm_clip = 0;     // a face value moved into its neighbour range
  long ppm_extremum = 0;
  long ppm_over_m = 0;   // qm pulled in
  long ppm_over_p = 0;   // qp pulled in
  long ppm_smooth = 0;   // neither correction
};

inline double minmod(double a, double b, Branches* br) {
  if (a * b <= 0.0) {
    if (br) ++br->minmod_zero;
    return 0.0;
  }
  if (std::abs(a) < std::abs(b)) {
    if (br) ++br->minmod_a;
    return a;
  }
  if (br) {
    ++br->minmod_b;
    br->minmod_tie += std::abs(a) == std::abs(b);
  }
  return b;
}

inline double mc_slope(double dqm, double dqp, Branches* br) {
  return minmod(0.5 * (dqm + dqp), minmod(2.0 * dqm, 2.0 * dqp, br), br);
}

inline double van_leer_slope(double dqm, double dqp, Branches* br) {
  const double prod = dqm * dqp;
  if (prod <= 0.0) {
    if (br) ++br->vanleer_zero;
    return 0.0;
  }
  if (br) ++br->vanleer_mean;
  return 2.0 * prod / (dqm + dqp);
}

inline void pcm(std::span<const double> q, std::span<double> ql,
                std::span<double> qr) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    ql[i] = q[i];
    qr[i] = q[i];
  }
}

inline void plm(recon::Method m, std::span<const double> q,
                std::span<double> ql, std::span<double> qr, Branches* br) {
  const std::size_t n = q.size();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double dqm = q[i] - q[i - 1];
    const double dqp = q[i + 1] - q[i];
    double slope;
    if (m == recon::Method::kPLMMinmod) {
      slope = minmod(dqm, dqp, br);
    } else if (m == recon::Method::kPLMMC) {
      slope = mc_slope(dqm, dqp, br);
    } else {
      slope = van_leer_slope(dqm, dqp, br);
    }
    ql[i] = q[i] - 0.5 * slope;
    qr[i] = q[i] + 0.5 * slope;
  }
}

/// Colella & Woodward (1984) PPM with the original monotonization.
inline void ppm(std::span<const double> q, std::span<double> ql,
                std::span<double> qr, Branches* br) {
  const std::size_t n = q.size();
  if (n < 5) return;
  // 4th-order face interpolant at i+1/2 (uses i-1..i+2).
  auto face = [&](std::size_t i) {
    return (7.0 / 12.0) * (q[i] + q[i + 1]) -
           (1.0 / 12.0) * (q[i - 1] + q[i + 2]);
  };
  for (std::size_t i = 2; i + 2 < n; ++i) {
    double qm = face(i - 1);  // value at i-1/2
    double qp = face(i);      // value at i+1/2

    // Clip face values into the neighbouring-cell range, then remove
    // interior extrema.
    const double lo_m = std::min(q[i - 1], q[i]);
    const double hi_m = std::max(q[i - 1], q[i]);
    const double lo_p = std::min(q[i], q[i + 1]);
    const double hi_p = std::max(q[i], q[i + 1]);
    if (br) {
      br->ppm_clip += (qm < lo_m || hi_m < qm) + (qp < lo_p || hi_p < qp);
    }
    qm = std::clamp(qm, lo_m, hi_m);
    qp = std::clamp(qp, lo_p, hi_p);

    if ((qp - q[i]) * (q[i] - qm) <= 0.0) {
      // Cell is a local extremum: flatten.
      if (br) ++br->ppm_extremum;
      qm = q[i];
      qp = q[i];
    } else {
      const double dq = qp - qm;
      const double q6 = 6.0 * (q[i] - 0.5 * (qm + qp));
      if (dq * q6 > dq * dq) {
        if (br) ++br->ppm_over_m;
        qm = 3.0 * q[i] - 2.0 * qp;
      } else if (-dq * dq > dq * q6) {
        if (br) ++br->ppm_over_p;
        qp = 3.0 * q[i] - 2.0 * qm;
      } else if (br) {
        ++br->ppm_smooth;
      }
    }
    ql[i] = qm;
    qr[i] = qp;
  }
}

/// Jiang & Shu (1996) WENO5 value at the right face of cell i, from the
/// 5-point stencil q[i-2..i+2].
inline double weno5_face(double qm2, double qm1, double q0, double qp1,
                         double qp2) {
  constexpr double eps = 1e-6;
  const auto sq = [](double x) { return x * x; };
  // Candidate stencils (3rd order each).
  const double f0 = (2.0 * qm2 - 7.0 * qm1 + 11.0 * q0) / 6.0;
  const double f1 = (-qm1 + 5.0 * q0 + 2.0 * qp1) / 6.0;
  const double f2 = (2.0 * q0 + 5.0 * qp1 - qp2) / 6.0;
  // Smoothness indicators.
  const double b0 = (13.0 / 12.0) * sq(qm2 - 2.0 * qm1 + q0) +
                    0.25 * sq(qm2 - 4.0 * qm1 + 3.0 * q0);
  const double b1 =
      (13.0 / 12.0) * sq(qm1 - 2.0 * q0 + qp1) + 0.25 * sq(qm1 - qp1);
  const double b2 = (13.0 / 12.0) * sq(q0 - 2.0 * qp1 + qp2) +
                    0.25 * sq(3.0 * q0 - 4.0 * qp1 + qp2);
  // Nonlinear weights from ideal weights {1,6,3}/10.
  const double a0 = 0.1 / sq(eps + b0);
  const double a1 = 0.6 / sq(eps + b1);
  const double a2 = 0.3 / sq(eps + b2);
  return (a0 * f0 + a1 * f1 + a2 * f2) / (a0 + a1 + a2);
}

inline void weno5(std::span<const double> q, std::span<double> ql,
                  std::span<double> qr) {
  const std::size_t n = q.size();
  if (n < 5) return;
  for (std::size_t i = 2; i + 2 < n; ++i) {
    // Right face: upwind-biased from the left.
    qr[i] = weno5_face(q[i - 2], q[i - 1], q[i], q[i + 1], q[i + 2]);
    // Left face: mirror the stencil.
    ql[i] = weno5_face(q[i + 2], q[i + 1], q[i], q[i - 1], q[i - 2]);
  }
}

/// The per-pencil scheme of `m`: entries [stencil_radius, n -
/// stencil_radius) of ql/qr are written, the rest left as they are.
inline void reconstruct(recon::Method m, std::span<const double> q,
                        std::span<double> ql, std::span<double> qr,
                        Branches* br = nullptr) {
  RSHC_REQUIRE(ql.size() == q.size() && qr.size() == q.size(),
               "reconstruction output size mismatch");
  switch (m) {
    case recon::Method::kPCM: pcm(q, ql, qr); return;
    case recon::Method::kPLMMinmod:
    case recon::Method::kPLMMC:
    case recon::Method::kPLMVanLeer: plm(m, q, ql, qr, br); return;
    case recon::Method::kPPM: ppm(q, ql, qr, br); return;
    case recon::Method::kWENO5: weno5(q, ql, qr); return;
  }
}

}  // namespace rshc::testsupport::recon_reference
