// Property sweep over planted two-parameter models: the generator must
// recover (to within a few percent at a 10x-extrapolated point) every
// combination shape the paper's Table II exhibits — multiplicative,
// additive, collective-based, and single-parameter-only.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "model/inversion.hpp"
#include "model/modelgen.hpp"
#include "support/rng.hpp"

namespace exareq::model {
namespace {

struct PlantedCase {
  const char* name;
  std::function<double(double, double)> truth;  // (p, n)
  bool communication;
};

// The paper's Table II shapes, expressed as closed forms.
const PlantedCase kCases[] = {
    {"linear_n", [](double, double n) { return 1e4 * n; }, false},
    {"nlogn", [](double, double n) { return 50.0 * n * std::log2(n); }, false},
    {"sqrt_n", [](double, double n) { return 3e3 * std::sqrt(n); }, false},
    {"n_plus_np",
     [](double p, double n) { return 1e5 * n + 1e2 * n * p; }, false},
    {"lulesh_flop",
     [](double p, double n) {
       return 20.0 * n * std::log2(n) * std::pow(p, 0.25) * std::log2(p);
     },
     false},
    {"milc_flop",
     [](double p, double n) { return 3e5 + 125.0 * n + 60.0 * n * std::log2(p); },
     false},
    {"milc_loads",
     [](double p, double n) {
       return 2e5 + 40.0 * n * std::log2(n) + 80.0 * std::pow(p, 1.5);
     },
     false},
    {"icofoam_flop",
     [](double p, double n) { return 24.0 * std::pow(n, 1.5) * std::sqrt(p); },
     false},
    {"icofoam_mem",
     [](double p, double n) { return 40.0 * n + 256.0 * p * std::log2(p); },
     false},
    {"allreduce_comm",
     [](double p, double) { return 400.0 * 2.0 * std::log2(p); }, true},
    {"scaled_allreduce",
     [](double p, double n) { return 32.0 * std::sqrt(n) * 2.0 * std::log2(p); },
     true},
    {"alltoall_plus_halo",
     [](double p, double n) { return 64.0 * 2.0 * (p - 1.0) + 128.0 * n; }, true},
};

class PlantedRecoveryTest
    : public ::testing::TestWithParam<std::size_t> {};

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return kCases[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(TableIIShapes, PlantedRecoveryTest,
                         ::testing::Range<std::size_t>(0, std::size(kCases)),
                         case_name);

TEST_P(PlantedRecoveryTest, ExtrapolatesTenfoldWithinFivePercent) {
  const PlantedCase& planted = kCases[GetParam()];
  MeasurementSet data({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
      data.add2(p, n, planted.truth(p, n));
    }
  }
  MetricTraits traits;
  traits.is_communication = planted.communication;
  const FitResult fit = generate(data, traits);

  for (const auto& [p, n] : {std::pair{512.0, 8192.0}, {1024.0, 16384.0}}) {
    const double truth = planted.truth(p, n);
    const double predicted = fit.model.evaluate2(p, n);
    EXPECT_NEAR(predicted, truth, 0.05 * truth)
        << "at (p=" << p << ", n=" << n << "), model " << fit.model.to_string();
  }
}

TEST_P(PlantedRecoveryTest, SurvivesCounterNoise) {
  // 0.3% multiplicative noise (generous for hardware counters): the model
  // must still extrapolate tenfold within 15%.
  const PlantedCase& planted = kCases[GetParam()];
  exareq::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  MeasurementSet data({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
      data.add2(p, n, planted.truth(p, n) * (1.0 + 0.003 * rng.normal()));
    }
  }
  MetricTraits traits;
  traits.is_communication = planted.communication;
  const FitResult fit = generate(data, traits);
  const double truth = planted.truth(512.0, 8192.0);
  EXPECT_NEAR(fit.model.evaluate2(512.0, 8192.0), truth, 0.15 * truth)
      << fit.model.to_string();
}

TEST_P(PlantedRecoveryTest, InversionRoundTripsInN) {
  // Fit, then invert the fitted model in n at fixed p; the footprint of the
  // recovered problem size must equal the requested budget.
  const PlantedCase& planted = kCases[GetParam()];
  if (planted.name == std::string("allreduce_comm")) {
    return;  // constant in n: not invertible
  }
  MeasurementSet data({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
      data.add2(p, n, planted.truth(p, n));
    }
  }
  MetricTraits traits;
  traits.is_communication = planted.communication;
  const FitResult fit = generate(data, traits);

  const double p = 128.0;
  const double budget = fit.model.evaluate2(p, 4096.0);
  const double coordinate[] = {p, 1.0};
  const double n = invert_model_in_parameter(fit.model, 1, coordinate, budget);
  EXPECT_NEAR(fit.model.evaluate2(p, n), budget, 1e-6 * budget);
  EXPECT_NEAR(n, 4096.0, 1.0);
}

}  // namespace
}  // namespace exareq::model
