// Performance and ablation benchmarks of the model-generation engine
// (Eq. 1/2 fitting). The ablations quantify the design choices DESIGN.md
// calls out: search-space size and the leave-one-out cross-validation
// cost.
#include <benchmark/benchmark.h>

#include <cmath>

#include "model/fitter.hpp"
#include "model/modelgen.hpp"
#include "support/rng.hpp"

namespace {

using namespace exareq::model;

MeasurementSet single_param_data(std::size_t points, double noise,
                                 std::uint64_t seed) {
  exareq::Rng rng(seed);
  MeasurementSet data({"p"});
  double x = 4.0;
  for (std::size_t i = 0; i < points; ++i) {
    const double value = 1e4 * x * std::log2(x) + 500.0 * x;
    data.add({x}, value * (1.0 + noise * rng.normal()));
    x *= 2.0;
  }
  return data;
}

MeasurementSet two_param_grid() {
  MeasurementSet data({"p", "n"});
  for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
      data.add2(p, n, 1e5 * n * std::log2(n) * std::pow(p, 0.25) * std::log2(p));
    }
  }
  return data;
}

void BM_SingleParameterFit(benchmark::State& state) {
  const auto data =
      single_param_data(static_cast<std::size_t>(state.range(0)), 0.0, 7);
  for (auto _ : state) {
    auto result = fit_single_parameter(data);
    benchmark::DoNotOptimize(result);
  }
  state.counters["points"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SingleParameterFit)->Arg(5)->Arg(7)->Arg(9);

void BM_MultiParameterFit(benchmark::State& state) {
  const auto data = two_param_grid();
  for (auto _ : state) {
    auto result = generate(data);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MultiParameterFit);

// Engine scaling: the same multi-parameter fit at 1..8 threads. The
// counters expose what the memoizing engine saves — cv_solves is the work
// actually done, hypotheses the work requested; identical models come out
// at every thread count.
void BM_MultiParameterFitThreads(benchmark::State& state) {
  const auto data = two_param_grid();
  GeneratorOptions options;
  options.fit.threads = static_cast<std::size_t>(state.range(0));
  EngineStats stats;
  for (auto _ : state) {
    auto result = generate(data, {}, options);
    stats = result.stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(stats.threads);
  state.counters["hypotheses"] = static_cast<double>(stats.hypotheses_scored);
  state.counters["cv_solves"] = static_cast<double>(stats.cv_solves);
  state.counters["cache_hit_rate"] = stats.cache_hit_rate();
}
BENCHMARK(BM_MultiParameterFitThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Single-parameter engine scaling on a denser axis (9 points, mild noise
// keeps the search from terminating early).
void BM_SingleParameterFitThreads(benchmark::State& state) {
  const auto data = single_param_data(9, 0.002, 21);
  FitOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result =
        fit_single_parameter(data, SearchSpace::paper_default(), options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SingleParameterFitThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CrossValidationScore(benchmark::State& state) {
  const auto data =
      single_param_data(static_cast<std::size_t>(state.range(0)), 0.0, 7);
  Term nlogn;
  nlogn.coefficient = 1.0;
  nlogn.factors = {pmnf_factor(0, 1.0, 1.0)};
  Term linear;
  linear.coefficient = 1.0;
  linear.factors = {pmnf_factor(0, 1.0, 0.0)};
  const std::vector<Term> basis{nlogn, linear};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cross_validation_score(data, basis));
  }
}
BENCHMARK(BM_CrossValidationScore)->Arg(5)->Arg(9)->Arg(15);

// Ablation: search-space size (coarse vs the paper's full grid).
void BM_SearchSpaceAblation(benchmark::State& state) {
  const auto data = single_param_data(7, 0.0, 5);
  const SearchSpace space =
      state.range(0) == 0 ? SearchSpace::coarse() : SearchSpace::paper_default();
  double score = 0.0;
  for (auto _ : state) {
    const auto result = fit_single_parameter(data, space);
    score = result.quality.cv_score;
    benchmark::DoNotOptimize(result);
  }
  state.counters["cv_score"] = score;
  state.counters["factors"] = static_cast<double>(space.factors_for(0).size());
}
BENCHMARK(BM_SearchSpaceAblation)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
