// Differential oracle (5): the production CV engine — one retained QR per
// hypothesis generation plus rank-one leave-one-out downdates — vs testkit's
// reference scorer, which refits every fold from scratch.
//
// There is one search, so the oracle compares scores, not searches. For
// each planted dataset production fits the model and selects a basis S;
// then S and its whole one-move neighbourhood (S plus one pool term, S with
// one term replaced, S with one term dropped) are scored by a fresh
// production engine and by the reference. Verdicts (finite vs +inf) must
// match exactly and finite scores agree to 1e-12 absolute / 1e-7 relative,
// and production's reported CV of S must equal the reference's. The
// neighbourhood is where selection happens: a hypothesis one engine
// rejects and the other admits there changes which model wins.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/fitter.hpp"
#include "model/multiparam.hpp"
#include "model/search_space.hpp"
#include "testkit/domain_gen.hpp"
#include "testkit/property.hpp"
#include "testkit/reference_fit.hpp"

namespace exareq::testkit {
namespace {

/// The generator's setup over the coarse space the planted models come
/// from.
model::GeneratorOptions planted_options(std::size_t threads) {
  model::GeneratorOptions options;
  options.space = model::SearchSpace::coarse();
  options.fit.threads = threads;
  return options;
}

std::string check_planted(const PlantedDataset& dataset) {
  const model::MeasurementSet data = dataset.build();
  const model::GeneratorOptions options = planted_options(dataset.threads);
  const model::FitResult fit = model::generate(data, {}, options);
  const std::vector<model::Term> pool =
      model::multi_parameter_pool(data, {}, options);
  return check_neighbourhood(data, pool, selected_basis(fit.model),
                             fit.quality.cv_score, options.fit)
      .diff;
}

TEST(PropertyBatchedFitterOracleTest, BatchedEngineMatchesScalarRefits) {
  const PropertyConfig config =
      property_config("batched-fitter-differential", 120);
  const auto result = check<PlantedDataset>(config, planted_dataset_gen(),
                                            planted_dataset_shrinker(),
                                            check_planted);
  EXPECT_TRUE(result.passed()) << result.report(
      [](const PlantedDataset& d) { return d.describe(); });
}

TEST(PropertyBatchedFitterOracleTest, BatchedModeActuallySkipsPerFoldSolves) {
  // Guard against the oracle degenerating into reference-vs-reference: pin
  // that production really scores by prefix extensions and downdates. Per
  // admissible hypothesis the reference spends folds + 1 solves;
  // production spends one factorization per cv_score (one per block for
  // score_extensions) plus one downdate per fold. Over the same
  // neighbourhood the solve count must differ by at least 10x.
  model::MeasurementSet data({"n"});
  for (int e = 1; e <= 30; ++e) {
    const double x = std::pow(2.0, static_cast<double>(e));
    data.add({x}, 7.0 * x * std::log2(x) + 100.0);
  }
  const model::GeneratorOptions options = planted_options(1);
  const model::FitResult fit = model::generate(data, {}, options);
  const NeighbourhoodCheck check = check_neighbourhood(
      data, model::multi_parameter_pool(data, {}, options),
      selected_basis(fit.model), fit.quality.cv_score, options.fit);
  EXPECT_EQ(check.diff, "");
  EXPECT_GT(check.production.downdates, 0u);
  EXPECT_GT(check.production.qr_extensions, 0u);
  EXPECT_GE(check.reference_solves, 10 * check.production.cv_solves);
}

}  // namespace
}  // namespace exareq::testkit
