// Differential oracle (5) on real application data: the nine committed
// campaign CSVs of perfbench/data (read-only), every metric and every
// communication call path that pipeline::model_requirements fits.
//
// Planted datasets never reach some of the shapes real counters produce —
// exact multi-term fits whose redundant neighbours have coefficients that
// are zero up to rounding, collective columns, I/O channels that are zero
// on most of the grid. For each fit the test rebuilds the exact term pool
// production searched (model::multi_parameter_pool with that metric's
// traits), checks that a search over it reproduces the pipeline's model,
// and runs the neighbourhood check: the selected basis and its one-move
// neighbours scored by the production engine and by testkit's per-fold
// reference must agree in verdict and score. Each fit's selected terms
// must also match the ones perfbench pins in clean_fits.tsv, so a change
// that moves a pinned fit fails here and not only in the benchmark gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
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

std::string data_path(const std::string& file) {
  return std::string(EXAREQ_PERFBENCH_DATA) + "/" + file;
}

pipeline::CampaignData load_campaign(const std::string& app) {
  std::ifstream file(data_path(app + ".csv"));
  EXPECT_TRUE(file.good()) << "missing committed campaign for " << app;
  return pipeline::CampaignData::from_csv(CsvDocument::parse(file), app);
}

/// The selected terms clean_fits.tsv pins for `app`, by fit label (a
/// metric label, or "chan:" and the call path).
std::map<std::string, std::string> pinned_fits(const std::string& app) {
  std::ifstream file(data_path("clean_fits.tsv"));
  EXPECT_TRUE(file.good()) << "missing clean_fits.tsv";
  std::map<std::string, std::string> pinned;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '\t');) {
      cells.push_back(cell);
    }
    EXPECT_EQ(cells.size(), 4u) << "clean_fits.tsv: bad line '" << line << "'";
    if (cells.size() == 4 && cells[0] == app) pinned[cells[1]] = cells[2];
  }
  return pinned;
}

/// A model's selected terms as clean_fits.tsv writes them: each term's
/// factors joined by " * ", the terms sorted and joined by " + ", "const"
/// for a constant model.
std::string selected_terms(const model::Model& model) {
  std::vector<std::string> terms;
  for (const model::Term& term : model.terms()) {
    std::string text;
    for (const model::Factor& factor : term.factors) {
      if (!text.empty()) text += " * ";
      text += factor.to_string(model.parameter_names()[factor.parameter]);
    }
    terms.push_back(text);
  }
  if (terms.empty()) return "const";
  std::sort(terms.begin(), terms.end());
  std::string joined;
  for (const std::string& term : terms) {
    joined += (joined.empty() ? "" : " + ") + term;
  }
  return joined;
}

/// "" when the fit of `data` agrees with the reference, else the report.
std::string check_fit(const model::MeasurementSet& data,
                      const model::MetricTraits& traits,
                      const model::FitResult& fitted) {
  const std::vector<model::Term> pool =
      model::multi_parameter_pool(data, traits);
  const model::FitResult rebuilt = model::fit_with_pool(data, pool);
  if (rebuilt.model.to_string() != fitted.model.to_string()) {
    return "rebuilt pool fits " + rebuilt.model.to_string() +
           " but the pipeline fitted " + fitted.model.to_string();
  }
  return check_neighbourhood(data, pool, selected_basis(fitted.model),
                             fitted.quality.cv_score)
      .diff;
}

TEST_P(PropertyCommittedDataOracleTest, EngineMatchesReferenceOnEveryFit) {
  const pipeline::CampaignData campaign = load_campaign(GetParam());
  const pipeline::RequirementModels models =
      pipeline::model_requirements(campaign);
  const std::map<std::string, std::string> pinned = pinned_fits(GetParam());

  std::size_t fits = 0;
  const auto check_pinned = [&](const std::string& label,
                                const model::FitResult& fit) {
    ++fits;
    const auto expected = pinned.find(label);
    ASSERT_NE(expected, pinned.end())
        << GetParam() << " " << label << ": not pinned in clean_fits.tsv";
    EXPECT_EQ(selected_terms(fit.model), expected->second)
        << GetParam() << " " << label << ": moved from the pinned clean fit";
  };
  for (const pipeline::Metric metric : pipeline::all_metrics()) {
    const std::string label = pipeline::metric_label(metric);
    EXPECT_EQ(check_fit(campaign.metric_data(metric),
                        pipeline::metric_traits(metric), models.result(metric)),
              "")
        << GetParam() << " " << label;
    check_pinned(label, models.result(metric));
  }
  for (const pipeline::ChannelModel& channel : models.comm_channels) {
    EXPECT_EQ(check_fit(campaign.channel_data(channel.name),
                        pipeline::channel_metric_traits(channel.traits),
                        channel.fit),
              "")
        << GetParam() << " channel " << channel.name;
    check_pinned("chan:" + channel.name, channel.fit);
  }
  EXPECT_GT(fits, pipeline::all_metrics().size() - 1);
  EXPECT_EQ(fits, pinned.size()) << GetParam() << ": pinned fits not fitted";
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
