#include "model/multiparam.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "support/error.hpp"

namespace exareq::model {
namespace {

const std::vector<double> kP{4.0, 8.0, 16.0, 32.0, 64.0};
const std::vector<double> kN{64.0, 128.0, 256.0, 512.0, 1024.0};

MeasurementSet grid(const std::function<double(double, double)>& f) {
  MeasurementSet data({"p", "n"});
  for (double p : kP) {
    for (double n : kN) {
      data.add2(p, n, f(p, n));
    }
  }
  return data;
}

double relative_prediction_error(const Model& m, double p, double n,
                                 double truth) {
  return std::fabs(m.evaluate2(p, n) - truth) / std::fabs(truth);
}

TEST(MultiParamTest, RecoversMultiplicativeCombination) {
  // LULESH-like FLOP: c * n log n * p^0.25 log p.
  const auto data = grid([](double p, double n) {
    return 1e5 * n * std::log2(n) * std::pow(p, 0.25) * std::log2(p);
  });
  const FitResult result = generate(data);
  // Extrapolate an order of magnitude beyond the grid.
  const double truth =
      1e5 * 8192.0 * 13.0 * std::pow(1024.0, 0.25) * 10.0;
  EXPECT_LT(relative_prediction_error(result.model, 1024.0, 8192.0, truth), 0.05)
      << result.model.to_string();
}

TEST(MultiParamTest, RecoversAdditiveCombination) {
  // MILC-like loads/stores: c0 + c1 * n log n + c2 * p^1.5.
  const auto data = grid([](double p, double n) {
    return 1e11 + 1e8 * n * std::log2(n) + 1e5 * std::pow(p, 1.5);
  });
  const FitResult result = generate(data);
  const double truth =
      1e11 + 1e8 * 4096.0 * 12.0 + 1e5 * std::pow(4096.0, 1.5);
  EXPECT_LT(relative_prediction_error(result.model, 4096.0, 4096.0, truth), 0.05)
      << result.model.to_string();
}

TEST(MultiParamTest, RecoversMixedCombination) {
  // Kripke-like loads/stores: c1 * n + c2 * n * p.
  const auto data =
      grid([](double p, double n) { return 1e8 * n + 1e5 * n * p; });
  const FitResult result = generate(data);
  ASSERT_FALSE(result.model.is_constant());
  const double truth = 1e8 * 4096.0 + 1e5 * 4096.0 * 512.0;
  EXPECT_LT(relative_prediction_error(result.model, 512.0, 4096.0, truth), 0.05)
      << result.model.to_string();
  // The interaction term n*p must be present for correct extrapolation.
  bool has_interaction = false;
  for (const Term& term : result.model.terms()) {
    if (term.depends_on(0) && term.depends_on(1)) has_interaction = true;
  }
  EXPECT_TRUE(has_interaction) << result.model.to_string();
}

TEST(MultiParamTest, SingleParameterDependenceLeavesOtherOut) {
  // Relearn-like footprint: c * n^0.5, independent of p.
  const auto data = grid([](double, double n) { return 1e6 * std::sqrt(n); });
  const FitResult result = generate(data);
  ASSERT_EQ(result.model.terms().size(), 1u) << result.model.to_string();
  EXPECT_FALSE(result.model.depends_on(0)) << result.model.to_string();
  EXPECT_TRUE(result.model.depends_on(1));
  const Factor& f = result.model.terms()[0].factors[0];
  EXPECT_DOUBLE_EQ(f.poly_exponent, 0.5);
}

TEST(MultiParamTest, ConstantDataYieldsConstantModel) {
  const auto data = grid([](double, double) { return 1234.0; });
  const FitResult result = generate(data);
  EXPECT_TRUE(result.model.is_constant());
  EXPECT_NEAR(result.model.constant(), 1234.0, 1e-9);
}

TEST(MultiParamTest, CollectiveTermRecoveredForCommunicationMetric) {
  // Relearn-like communication: s1 * Allreduce(p) + s2 * n.
  const auto data = grid([](double p, double n) {
    return 1e5 * 2.0 * std::log2(p) + 10.0 * n;
  });
  MetricTraits traits;
  traits.is_communication = true;
  const FitResult result = generate(data, traits);
  const double truth = 1e5 * 2.0 * std::log2(4096.0) + 10.0 * 65536.0;
  EXPECT_LT(relative_prediction_error(result.model, 4096.0, 65536.0, truth), 0.05)
      << result.model.to_string();
}

TEST(MultiParamTest, RankCandidateFactorsPutsTrueShapeFirst) {
  MeasurementSet slice({"p"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    slice.add({p}, 7.0 * std::pow(p, 1.5));
  }
  const auto ranked = rank_candidate_factors(slice, 0);
  ASSERT_FALSE(ranked.empty());
  EXPECT_DOUBLE_EQ(ranked.front().poly_exponent, 1.5);
  EXPECT_DOUBLE_EQ(ranked.front().log_exponent, 0.0);
  EXPECT_EQ(ranked.front().parameter, 0u);
}

TEST(MultiParamTest, RankCandidateFactorsRejectsMultiParamSlice) {
  MeasurementSet notSlice({"p", "n"});
  notSlice.add2(2.0, 2.0, 1.0);
  EXPECT_THROW(rank_candidate_factors(notSlice, 0),
               exareq::InvalidArgument);
}

TEST(MultiParamTest, JointPoolContainsSinglesAndProducts) {
  std::vector<std::vector<Factor>> factors(2);
  factors[0] = {pmnf_factor(0, 1.0, 0.0), pmnf_factor(0, 2.0, 0.0)};
  factors[1] = {pmnf_factor(1, 0.0, 1.0)};
  const auto pool = build_joint_pool(factors);
  // 2 singles for p, 1 single for n, 2x1 products = 5 terms.
  EXPECT_EQ(pool.size(), 5u);
  std::size_t products = 0;
  for (const Term& term : pool) {
    if (term.factors.size() == 2) ++products;
  }
  EXPECT_EQ(products, 2u);
}

TEST(MultiParamTest, JointPoolDeduplicates) {
  std::vector<std::vector<Factor>> factors(1);
  factors[0] = {pmnf_factor(0, 1.0, 0.0), pmnf_factor(0, 1.0, 0.0)};
  const auto pool = build_joint_pool(factors);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MultiParamTest, ThreeParameterProductTerm) {
  MeasurementSet data({"a", "b", "c"});
  for (double a : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    for (double b : {2.0, 4.0, 8.0, 16.0, 32.0}) {
      for (double c : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        data.add({a, b, c}, 3.0 * a * b * c);
      }
    }
  }
  const FitResult result = generate(data);
  const double point[] = {64.0, 64.0, 64.0};
  const double truth = 3.0 * 64.0 * 64.0 * 64.0;
  EXPECT_NEAR(result.model.evaluate(point), truth, 0.05 * truth)
      << result.model.to_string();
}

TEST(MultiParamTest, EmptyDataThrows) {
  const MeasurementSet data({"p", "n"});
  EXPECT_THROW(generate(data), exareq::InvalidArgument);
}

TEST(MultiParamTest, GenerateEnforcesTheFiveValuesRule) {
  MeasurementSet data({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0}) {
    for (double n : kN) data.add2(p, n, p * n);
  }
  EXPECT_THROW(generate(data), exareq::InvalidArgument);
}

TEST(MultiParamTest, OneParameterPoolAdmitsOnlyTheAllowedCollectives) {
  // Alltoall(p)-shaped communication on a call path that only ever called
  // MPI_Allreduce: the fit may find the shape (as p), but never the
  // collective the call path did not use.
  const Term alltoall{1.0, {special_factor(0, SpecialFn::kAlltoall)}};
  MeasurementSet data({"p"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
    data.add({p}, 1e4 * alltoall.evaluate_basis(std::vector<double>{p}));
  }
  MetricTraits traits;
  traits.is_communication = true;
  traits.collectives = {SpecialFn::kAllreduce};
  for (const Term& term : multi_parameter_pool(data, traits)) {
    EXPECT_NE(term.factors.front().special, SpecialFn::kAlltoall);
  }
  const FitResult result = generate(data, traits);
  for (const Term& term : result.model.terms()) {
    for (const Factor& factor : term.factors) {
      EXPECT_NE(factor.special, SpecialFn::kAlltoall) << result.model.to_string();
    }
  }
  EXPECT_NEAR(result.model.evaluate1(1024.0), 1e4 * 2.0 * 1023.0, 1e-3)
      << result.model.to_string();
}

}  // namespace
}  // namespace exareq::model
