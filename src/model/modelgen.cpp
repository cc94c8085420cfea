#include "model/modelgen.hpp"

#include "support/error.hpp"

namespace exareq::model {

ModelGenerator::ModelGenerator(GeneratorOptions options)
    : options_(std::move(options)) {
  exareq::require(options_.min_distinct_values >= 2,
                  "ModelGenerator: need at least two distinct values");
}

FitResult ModelGenerator::generate(const MeasurementSet& data,
                                   const MetricTraits& traits) const {
  data.validate_for_modeling(options_.min_distinct_values);
  return fit_multi_parameter(data, multi_parameter_options(data, traits));
}

MultiParamOptions ModelGenerator::multi_parameter_options(
    const MeasurementSet& data, const MetricTraits& traits) const {
  MultiParamOptions multi;
  multi.space = options_.space;
  multi.fit = options_.fit;
  multi.top_factors_per_parameter = options_.top_factors_per_parameter;
  if (traits.is_communication) {
    for (std::size_t l = 0; l < data.parameter_count(); ++l) {
      if (data.parameter_names()[l] == options_.process_parameter) {
        multi.collective_parameters.push_back(l);
      }
    }
    multi.allowed_collectives = traits.collectives;
  }
  return multi;
}

}  // namespace exareq::model
