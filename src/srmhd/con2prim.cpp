#include "rshc/srmhd/con2prim.hpp"

#include <algorithm>
#include <cmath>

#include "rshc/check/check.hpp"

namespace rshc::srmhd {

Con2PrimResult cons_to_prim(const Cons& u, const eos::IdealGas& eos,
                            const Con2PrimOptions& opt) {
  Con2PrimResult out;

  if (!detail::c2p_admissible(u, opt)) {
    out.prim = detail::c2p_atmosphere(u, opt);
    out.floored = true;
    RSHC_CHECK_PRIM("srmhd.con2prim", out.prim, -1, -1, -1, -1);
    return out;
  }

  // Bracket on z. Key facts: f is increasing in z near the root, the
  // physical root satisfies z* = rho h W^2 >= D, and states with z too
  // small are *unphysical* (v^2(z) >= 1). We therefore treat "unphysical"
  // as "below the root" for bracketing purposes, which makes plain
  // bisection robust even when the physical window starts far above D
  // (highly relativistic, strongly magnetized states).
  using detail::below_root;
  using detail::c2p_evaluate;
  using detail::ZState;

  double z_lo = detail::c2p_z_lo(u);
  // Expand the upper end until it is physical with f > 0.
  double z_hi = detail::c2p_z_hi(u, z_lo);
  ZState s_hi = c2p_evaluate(u, z_hi, eos);
  int guard = 0;
  while (below_root(s_hi) && guard++ < 200) {
    z_hi *= 2.0;
    s_hi = c2p_evaluate(u, z_hi, eos);
  }
  if (below_root(s_hi)) {
    out.prim = detail::c2p_atmosphere(u, opt);
    out.floored = true;
    RSHC_CHECK_PRIM("srmhd.con2prim", out.prim, -1, -1, -1, -1);
    return out;
  }

  double z = 0.5 * (z_lo + z_hi);
  const double E = u.tau + u.d;
  for (int it = 0; it < opt.max_iterations; ++it) {
    out.iterations = it + 1;
    const ZState r = c2p_evaluate(u, z, eos);
    if (!r.physical) {
      z_lo = std::max(z_lo, z);  // unphysical => z below the root
      z = 0.5 * (z_lo + z_hi);
      continue;
    }
    const double scale = std::max(std::abs(E), std::abs(z));
    if (std::abs(r.f) <= opt.tolerance * scale) {
      out.prim = detail::c2p_prim(u, z, r.W, r.p, opt);
      out.converged = true;
      // Same contract as SRHD: nothing unphysical leaves c2p, floored or
      // not (see check.hpp; zone provenance is added by the solver site).
      RSHC_CHECK_PRIM("srmhd.con2prim", out.prim, -1, -1, -1, -1);
      return out;
    }
    if (r.f < 0.0) {
      z_lo = std::max(z_lo, z);
    } else {
      z_hi = std::min(z_hi, z);
    }
    // Newton with numerical derivative, bisection fallback.
    const double dz = 1e-8 * std::max(1.0, std::abs(z));
    const ZState rp = c2p_evaluate(u, z + dz, eos);
    double z_next = 0.0;
    if (rp.physical && std::abs(rp.f - r.f) > 0.0) {
      const double slope = (rp.f - r.f) / dz;
      z_next = z - r.f / slope;
    }
    if (!(z_next > z_lo && z_next < z_hi) || !std::isfinite(z_next)) {
      z_next = 0.5 * (z_lo + z_hi);
    }
    z = z_next;
  }

  out.prim = detail::c2p_atmosphere(u, opt);
  out.floored = true;
  out.converged = false;
  RSHC_CHECK_PRIM("srmhd.con2prim", out.prim, -1, -1, -1, -1);
  return out;
}

}  // namespace rshc::srmhd
