// Differential oracle (5) on real application data: the nine committed
// campaign CSVs of perfbench/data (read-only), every metric and every
// communication call path that pipeline::model_requirements fits.
//
// Planted datasets never reach some of the shapes real counters produce —
// exact multi-term fits whose redundant neighbours have coefficients that
// are zero up to rounding, collective columns, I/O channels that are zero
// on most of the grid. For each fit the test rebuilds the exact term pool
// production searched (the generator's options for that metric, then
// model::multi_parameter_pool), checks that a search over it reproduces
// the pipeline's model, and runs the neighbourhood check: the selected
// basis and its one-move neighbours scored by the production engine and by
// testkit's per-fold reference must agree in verdict and score.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/modelgen.hpp"
#include "model/multiparam.hpp"
#include "pipeline/campaign.hpp"
#include "support/csv.hpp"
#include "testkit/reference_fit.hpp"

namespace exareq::testkit {
namespace {

class PropertyCommittedDataOracleTest
    : public ::testing::TestWithParam<std::string> {};

pipeline::CampaignData load_campaign(const std::string& app) {
  std::ifstream file(std::string(EXAREQ_PERFBENCH_DATA) + "/" + app + ".csv");
  EXPECT_TRUE(file.good()) << "missing committed campaign for " << app;
  return pipeline::CampaignData::from_csv(CsvDocument::parse(file), app);
}

/// "" when the fit of `data` agrees with the reference, else the report.
std::string check_fit(const model::ModelGenerator& generator,
                      const model::MeasurementSet& data,
                      const model::MetricTraits& traits,
                      const model::FitResult& fitted) {
  const model::MultiParamOptions options =
      generator.multi_parameter_options(data, traits);
  const std::vector<model::Term> pool =
      model::multi_parameter_pool(data, options);
  const model::FitResult rebuilt =
      model::fit_with_pool(data, pool, options.fit);
  if (rebuilt.model.to_string() != fitted.model.to_string()) {
    return "rebuilt pool fits " + rebuilt.model.to_string() +
           " but the pipeline fitted " + fitted.model.to_string();
  }
  return check_neighbourhood(data, pool, selected_basis(fitted.model),
                             fitted.quality.cv_score, options.fit)
      .diff;
}

TEST_P(PropertyCommittedDataOracleTest, EngineMatchesReferenceOnEveryFit) {
  const pipeline::CampaignData campaign = load_campaign(GetParam());
  const model::GeneratorOptions options;
  const model::ModelGenerator generator(options);
  const pipeline::RequirementModels models =
      pipeline::model_requirements(campaign, options);

  std::size_t fits = 0;
  for (const pipeline::Metric metric : pipeline::all_metrics()) {
    ++fits;
    EXPECT_EQ(check_fit(generator, campaign.metric_data(metric),
                        pipeline::metric_traits(metric), models.result(metric)),
              "")
        << GetParam() << " " << pipeline::metric_label(metric);
  }
  for (const pipeline::ChannelModel& channel : models.comm_channels) {
    ++fits;
    EXPECT_EQ(check_fit(generator, campaign.channel_data(channel.name),
                        pipeline::channel_metric_traits(channel.traits),
                        channel.fit),
              "")
        << GetParam() << " channel " << channel.name;
  }
  EXPECT_GT(fits, pipeline::all_metrics().size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    CommittedCsvs, PropertyCommittedDataOracleTest,
    ::testing::Values("CheckpointIO", "GraphBFS", "Kripke", "LULESH", "MILC",
                      "MiniDNN", "Relearn", "Stencil3D", "icoFoam"),
    [](const ::testing::TestParamInfo<std::string>& app) {
      return app.param;
    });

}  // namespace
}  // namespace exareq::testkit
