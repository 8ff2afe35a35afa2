// Conformance and fuzz test for the lane-wise reconstruction row kernels:
// recon::reconstruct_rows (and recon::reconstruct, which runs the same
// row kernel on one row) must reproduce the branchy per-pencil oracle
// (tests/support/recon_reference.hpp) bit for bit, for every scheme, on
// rows whose lanes take different branches side by side, at every vector
// remainder, with row strides larger than the row and several rows per
// call. Entries outside [stencil_radius, n - stencil_radius) and the
// padding between rows must be left untouched.
//
// The rows are seeded mixtures of segments built to reach every branch:
// sign changes, exact zeros and -0.0, plateaus (a zero one-sided
// difference, a PPM face clipped onto the cell value), integer ramps
// (|a| == |b| ties), spikes (PPM local extrema), steps (both PPM
// overshoot corrections), values near the overflow threshold (sums that
// overflow), subnormals, +-inf and NaNs of several payloads. The test
// asserts the coverage, so a generator change cannot quietly stop
// exercising a branch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "rshc/recon/reconstruct.hpp"
#include "support/recon_reference.hpp"

namespace {

using namespace rshc;
using recon::Method;
namespace ref = rshc::testsupport::recon_reference;

const Method kMethods[] = {Method::kPCM,       Method::kPLMMinmod,
                           Method::kPLMMC,     Method::kPLMVanLeer,
                           Method::kPPM,       Method::kWENO5};

// Shorter than every stencil up to the vector width (4 doubles at 32
// bytes) and its unrolled multiples: remainders only, full vectors +- 1.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 63, 64, 65, 129};

constexpr double kHuge = 1.0e308;  // two of them overflow when added
const double kInf = std::numeric_limits<double>::infinity();

double nan_with_payload(std::uint64_t payload, bool negative) {
  std::uint64_t bits = 0x7ff8000000000000ULL | (payload & 0xffffULL);
  if (negative) bits |= 0x8000000000000000ULL;
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// The value ql/qr are filled with before a call: entries a kernel must
/// not write keep it, which memcmp tells from any computed NaN.
const double kSentinel = nan_with_payload(0xdead, true);

double special(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: return nan_with_payload(rng() % 7 + 1, rng() % 2 != 0);
    case 1: return kInf;
    case 2: return -kInf;
    case 3: return -0.0;
    case 4: return std::numeric_limits<double>::denorm_min() *
                   static_cast<double>(rng() % 5 + 1);
    default: return (rng() % 2 != 0 ? 1.0 : -1.0) * 1.7e308;
  }
}

/// Append one segment of `len` values of a random kind to `q`.
void append_segment(std::mt19937_64& rng, std::vector<double>& q,
                    std::size_t len) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const double base = u(rng);
  const double step = std::ldexp(static_cast<double>(rng() % 9) - 4.0,
                                 -static_cast<int>(rng() % 4));
  const int kind = static_cast<int>(rng() % 8);
  for (std::size_t k = 0; k < len; ++k) {
    const double x = static_cast<double>(k);
    switch (kind) {
      case 0:  // noise around zero: sign changes
        q.push_back(u(rng));
        break;
      case 1:  // plateau, zeros included
        q.push_back(rng() % 3 == 0 ? 0.0 : base);
        break;
      case 2:  // exact ramp: equal one-sided differences
        q.push_back(step * x);
        break;
      case 3:  // spike: a local extremum every other cell
        q.push_back(k % 2 == 0 ? base : base + u(rng));
        break;
      case 4:  // step: flat, jump, flat
        q.push_back(k < len / 2 ? base : base + 10.0 * step + 1.0);
        break;
      case 5:  // smooth
        q.push_back(std::sin(0.3 * x + base));
        break;
      case 6:  // huge: sums and differences overflow
        q.push_back(static_cast<double>(static_cast<int>(rng() % 3) - 1) *
                    kHuge);
        break;
      default:
        q.push_back(special(rng));
        break;
    }
  }
}

/// `nrows` rows of `n` values, `stride` apart; the padding is noise too.
std::vector<double> make_rows(std::size_t nrows, std::size_t n,
                              std::size_t stride, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> q;
  const std::size_t total = (nrows - 1) * stride + n;
  while (q.size() < total) {
    // Mostly runs of one kind (a neighbourhood takes one branch), some
    // single cells (lanes side by side take different branches).
    append_segment(rng, q, rng() % 2 == 0 ? 1 : rng() % 9 + 2);
  }
  q.resize(total);
  return q;
}

struct Seen {
  long nan = 0, inf = 0, neg_zero = 0, huge = 0;
};

void count_specials(std::span<const double> q, Seen& seen) {
  for (double x : q) {
    seen.nan += std::isnan(x);
    seen.inf += std::isinf(x);
    seen.neg_zero += x == 0.0 && std::signbit(x);
    seen.huge += std::abs(x) >= kHuge && std::isfinite(x);
  }
}

/// First index whose bits differ, or "" when identical. A NaN matches any
/// NaN: IEEE 754 leaves open which operand's payload and sign a NaN result
/// carries, and the compiler may commute an addition or a product, so only
/// NaN-ness is reproducible. (The untouched entries are checked bitwise
/// against the sentinel separately.)
std::string first_diff(const std::vector<double>& got,
                       const std::vector<double>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return "entry " + std::to_string(i) + ": got " +
             std::to_string(got[i]) + " want " + std::to_string(want[i]);
    }
  }
  return "";
}

bool is_sentinel(double x) {
  return std::memcmp(&x, &kSentinel, sizeof x) == 0;
}

TEST(ReconLanes, RowKernelsMatchOracleBitwise) {
  ref::Branches br;
  Seen seen;
  for (Method m : kMethods) {
    const auto rad = static_cast<std::size_t>(recon::stencil_radius(m));
    for (std::size_t n : kLengths) {
      for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const std::size_t nrows = 1 + seed % 3;
        const std::size_t qstride = n + seed % 4;
        const std::size_t fstride = n + 3;
        const auto q = make_rows(nrows, n, qstride, 7919 * seed + n);
        const std::size_t flen = (nrows - 1) * fstride + n + 2;
        std::vector<double> ql(flen, kSentinel), qr(flen, kSentinel);
        std::vector<double> want_l(flen, kSentinel),
            want_r(flen, kSentinel);
        recon::reconstruct_rows(m, nrows, n, q.data(), qstride, ql.data(),
                                qr.data(), fstride);
        for (std::size_t r = 0; r < nrows; ++r) {
          const std::span<const double> row(q.data() + r * qstride, n);
          count_specials(row, seen);
          ref::reconstruct(m, row, {want_l.data() + r * fstride, n},
                           {want_r.data() + r * fstride, n}, &br);
        }
        const std::string what = std::string(recon::method_name(m)) +
                                 " n " + std::to_string(n) + " rows " +
                                 std::to_string(nrows) + " seed " +
                                 std::to_string(seed);
        ASSERT_EQ(first_diff(ql, want_l), "") << "ql, " << what;
        ASSERT_EQ(first_diff(qr, want_r), "") << "qr, " << what;
        // Only [rad, n - rad) of each row is written.
        for (std::size_t i = 0; i < flen; ++i) {
          const std::size_t r = i / fstride;
          const std::size_t c = i % fstride;
          const bool inside = r < nrows && c >= rad && c + rad < n;
          if (!inside) {
            ASSERT_TRUE(is_sentinel(ql[i]) && is_sentinel(qr[i]))
                << what << ": entry " << c << " of row " << r
                << " was written";
          }
        }
      }
    }
  }
  EXPECT_GT(br.minmod_zero, 0) << "no minmod sign test taken";
  EXPECT_GT(br.minmod_a, 0) << "no minmod picking a";
  EXPECT_GT(br.minmod_b, 0) << "no minmod picking b";
  EXPECT_GT(br.minmod_tie, 0) << "no |a| == |b| tie";
  EXPECT_GT(br.vanleer_zero, 0) << "no van Leer prod <= 0";
  EXPECT_GT(br.vanleer_mean, 0) << "no van Leer harmonic mean";
  EXPECT_GT(br.ppm_clip, 0) << "no PPM face clipped";
  EXPECT_GT(br.ppm_extremum, 0) << "no PPM local extremum";
  EXPECT_GT(br.ppm_over_m, 0) << "no PPM qm correction";
  EXPECT_GT(br.ppm_over_p, 0) << "no PPM qp correction";
  EXPECT_GT(br.ppm_smooth, 0) << "no uncorrected PPM cell";
  EXPECT_GT(seen.nan, 0) << "no NaN in a stencil";
  EXPECT_GT(seen.inf, 0) << "no inf in a stencil";
  EXPECT_GT(seen.neg_zero, 0) << "no -0.0 in a stencil";
  EXPECT_GT(seen.huge, 0) << "no value near the overflow threshold";
}

TEST(ReconLanes, SpanReconstructMatchesOracleBitwise) {
  // reconstruct() runs the row kernel on a one-row tile.
  for (Method m : kMethods) {
    for (std::size_t n : kLengths) {
      const auto q = make_rows(1, n, n, 31 * n + 5);
      std::vector<double> ql(n, kSentinel), qr(n, kSentinel);
      std::vector<double> want_l(n, kSentinel), want_r(n, kSentinel);
      recon::reconstruct(m, q, ql, qr);
      ref::reconstruct(m, q, want_l, want_r);
      ASSERT_EQ(first_diff(ql, want_l), "")
          << recon::method_name(m) << " n " << n;
      ASSERT_EQ(first_diff(qr, want_r), "")
          << recon::method_name(m) << " n " << n;
    }
  }
}

}  // namespace
