#include "model/modelgen.hpp"

#include <chrono>

#include "model/multiparam.hpp"
#include "obs/trace.hpp"

namespace exareq::model {

FitResult generate(const MeasurementSet& data, const MetricTraits& traits,
                   const GeneratorOptions& options) {
  data.validate_for_modeling();
  const auto started = std::chrono::steady_clock::now();
  obs::ScopedSpan span("generate", "model");
  span.arg("parameters", static_cast<double>(data.parameter_count()));
  span.arg("points", static_cast<double>(data.size()));
  EngineStats ranking_stats;
  const std::vector<Term> pool =
      multi_parameter_pool(data, traits, options, &ranking_stats);
  FitResult result = fit_with_pool(data, pool, options.fit);
  result.stats += ranking_stats;
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace exareq::model
