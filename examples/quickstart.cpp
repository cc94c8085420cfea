// Quickstart: fit a requirement model to measurements and use it.
//
//   1. Collect measurements of a metric over a (p, n) grid.
//   2. Generate an empirical model with the Extra-P-substitute generator.
//   3. Extrapolate to exascale and invert the model for capacity planning.
//
// Build & run:  ./build/examples/quickstart
#include <cmath>
#include <cstdio>

#include "model/inversion.hpp"
#include "model/modelgen.hpp"

int main() {
  using namespace exareq;

  // Step 1: measurements. Here they come from a closed form standing in
  // for your instrumented application (bytes used per process, say).
  model::MeasurementSet bytes_used({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
      const double measured = 2048.0 + 96.0 * n * std::log2(n);
      bytes_used.add2(p, n, measured);
    }
  }

  // Step 2: model generation (paper Sec. II-C). The generator searches the
  // performance model normal form and selects by cross-validation.
  const model::FitResult fit = model::generate(bytes_used);
  std::printf("fitted model : %s\n", fit.model.to_string().c_str());
  std::printf("paper style  : %s\n", fit.model.to_string_rounded().c_str());
  std::printf("LOO-CV error : %.2e\n", fit.quality.cv_score);

  // Step 3a: extrapolate far beyond the measurements.
  const double exascale_n = 1.0e9;
  std::printf("footprint at n = 1e9: %.3e bytes per process\n",
              fit.model.evaluate2(1.0e8, exascale_n));

  // Step 3b: invert — what problem size fills 2 GiB per process?
  const double coordinate[] = {1.0e8, 1.0};
  const double n_max = model::invert_model_in_parameter(
      fit.model, 1, coordinate, 2.0 * 1024.0 * 1024.0 * 1024.0);
  std::printf("2 GiB per process holds n = %.3e\n", n_max);
  return 0;
}
