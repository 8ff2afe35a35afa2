// Experiment W1 — wavelet compression of HRSC solutions (figure).
// The wavelet-adaptivity motivation in one table: threshold sweep over
// (a) a smooth flow and (b) the MM1 blast-wave solution, reporting the
// compression ratio (points an adaptive method would *not* carry) and the
// reconstruction error.
//
// Expected shape: smooth fields compress by orders of magnitude at tiny
// error; shocked solutions keep a band of points around each wave but
// still compress ~10x at solution-error-level thresholds; reconstruction
// error tracks the threshold.

#include "exp_common.hpp"
#include "interp_wavelet.hpp"

int main() {
  using namespace rshc;
  constexpr int kLevels = 10;  // 1025 points
  const std::size_t n = wavelet::grid_size(kLevels);

  // (a) smooth: the advected density wave profile.
  std::vector<double> smooth(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    smooth[i] = problems::smooth_wave_exact_rho({}, x, 0.0);
  }

  // (b) shocked: the exact MM1 solution at t_final.
  const problems::ShockTube st = problems::marti_muller_1();
  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  std::vector<double> shocked(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    shocked[i] = exact.sample((x - st.x_split) / st.t_final).rho;
  }

  Table table({"field", "eps", "kept", "total", "compression",
               "max_error"});
  table.set_title("W1: interpolating-wavelet compression of flow fields "
                  "(1025-point dyadic grid)");

  for (const auto& [name, field] :
       {std::pair{"smooth", &smooth}, std::pair{"mm1_blast", &shocked}}) {
    for (const double eps : {1e-2, 1e-4, 1e-6, 1e-8}) {
      std::vector<double> out(field->size());
      const auto c = wavelet::compress_roundtrip(*field, eps, out);
      double worst = 0.0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        worst = std::max(worst, std::abs(out[i] - (*field)[i]));
      }
      table.add_row({std::string(name), eps,
                     static_cast<long long>(c.kept),
                     static_cast<long long>(c.total),
                     c.compression_ratio(), worst});
    }
  }
  bench::emit(table, "w1_wavelet_compression");
  return 0;
}
