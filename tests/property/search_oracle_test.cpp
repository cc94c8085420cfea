// Differential oracle (1): the parallel, memoizing model-search engine vs
// a fresh single-thread fit on randomly planted PMNF datasets.
//
// The fast path is what production uses — an engine with basis-column and
// score caches, searching on `threads` pool workers, fitted twice so the
// second search runs almost entirely from the memo. The reference is a
// cold, strictly serial search. The engine's contract is that every one of
// these selects the bit-identical model; any divergence (term set,
// coefficients, CV score) is a counterexample.
//
// The suite also injects a deliberately broken fast path (a result cache
// that is never invalidated when the data changes) and demonstrates the
// oracle catches it — the acceptance test for the oracle's own power.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/fitter.hpp"
#include "model/multiparam.hpp"
#include "model/search_space.hpp"
#include "model/serialize.hpp"
#include "testkit/domain_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/property.hpp"

namespace exareq::testkit {
namespace {

std::string render(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Everything the search selects, in full precision: the model (terms and
// coefficients) and the quality numbers the pipeline reports.
std::string summarize(const model::FitResult& result) {
  return model::serialize_model(result.model) +
         "cv " + render(result.quality.cv_score) + "\nsmape " +
         render(result.quality.smape) + "\nr2 " +
         render(result.quality.r_squared);
}

std::vector<model::Term> coarse_pool() {
  std::vector<model::Term> pool;
  for (const model::Factor& factor :
       model::SearchSpace::coarse().factors_for(0)) {
    model::Term term;
    term.coefficient = 1.0;
    term.factors = {factor};
    pool.push_back(std::move(term));
  }
  return pool;
}

model::FitResult fast_fit(const PlantedDataset& dataset) {
  const model::MeasurementSet data = dataset.build();
  if (data.parameter_count() == 1) {
    model::FitOptions options;
    options.threads = dataset.threads;
    model::FitEngine engine(data, options);
    const std::vector<model::Term> pool = coarse_pool();
    // First search warms the caches; the second one — whose result we
    // compare — is served largely from the score memo. A stale or
    // mis-keyed memo diverges right here.
    (void)model::fit_with_pool_engine(engine, pool);
    return model::fit_with_pool_engine(engine, pool);
  }
  model::GeneratorOptions options;
  options.space = model::SearchSpace::coarse();
  options.fit.threads = dataset.threads;
  return model::generate(data, {}, options);
}

model::FitResult reference_fit(const PlantedDataset& dataset) {
  const model::MeasurementSet data = dataset.build();
  if (data.parameter_count() == 1) {
    model::FitOptions options;
    options.threads = 1;
    return model::fit_with_pool(data, coarse_pool(), options);
  }
  model::GeneratorOptions options;
  options.space = model::SearchSpace::coarse();
  options.fit.threads = 1;
  return model::generate(data, {}, options);
}

TEST(PropertySearchOracleTest, ParallelCachedSearchMatchesSerialColdSearch) {
  const PropertyConfig config =
      property_config("search-engine-differential", 200);
  DiffOracle<PlantedDataset, std::string> oracle;
  oracle.fast = [](const PlantedDataset& d) { return summarize(fast_fit(d)); };
  oracle.reference = [](const PlantedDataset& d) {
    return summarize(reference_fit(d));
  };
  oracle.diff = text_diff;
  const auto result = check_differential(config, planted_dataset_gen(),
                                         planted_dataset_shrinker(), oracle);
  EXPECT_TRUE(result.passed()) << result.report(
      [](const PlantedDataset& d) { return d.describe(); });
}

TEST(PropertySearchOracleTest, RepeatedEngineSearchActuallyHitsTheCache) {
  // Guard against the oracle silently degenerating: if a refactor stopped
  // the second search from using the memo, the "cached" fast path would be
  // testing nothing. Pin that the warm search is served from the caches.
  Rng rng(case_seed(1, 0));
  PlantedDataset dataset = planted_dataset_gen(0.0)(rng);
  const model::MeasurementSet data = dataset.build();
  model::FitOptions options;
  options.threads = 2;
  model::FitEngine engine(data, options);
  const std::vector<model::Term> pool = coarse_pool();
  (void)model::fit_with_pool_engine(engine, pool);
  const model::EngineStats cold = engine.stats();
  (void)model::fit_with_pool_engine(engine, pool);
  const model::EngineStats warm = engine.stats();
  EXPECT_GT(warm.score_cache_hits, cold.score_cache_hits);
  // A warm replay factors nothing new: every CV score of the search comes
  // from the memo, so no prefix is extended and no fold is downdated
  // again. Only the full-data coefficient fits of the final pruning pass
  // run again — one per pruning round (at most one per selected term plus
  // the round that prunes nothing) and the final fit.
  EXPECT_EQ(warm.qr_extensions, cold.qr_extensions);
  EXPECT_EQ(warm.downdates, cold.downdates);
  EXPECT_LE(warm.cv_solves - cold.cv_solves, model::kMaxTerms + 2);
  EXPECT_GT(cold.qr_extensions, 0u);
}

TEST(PropertySearchOracleTest, InjectedStaleCacheBugIsCaught) {
  // The injected bug: a fit-result cache keyed only on the dataset's shape
  // (parameter count, grid sizes, term count) that skips invalidation when
  // the underlying values change — the classic "forgot to invalidate"
  // engine bug. Two datasets with the same shape but different planted
  // coefficients must collide quickly, and the oracle must notice.
  const PropertyConfig config =
      property_config("search-engine-stale-cache-bug", 200);
  auto stale_cache =
      std::make_shared<std::unordered_map<std::string, std::string>>();
  DiffOracle<PlantedDataset, std::string> oracle;
  oracle.fast = [stale_cache](const PlantedDataset& d) {
    std::string key = std::to_string(d.parameter_names.size()) + "|" +
                      std::to_string(d.terms.size());
    for (const auto& axis : d.axes) key += "|" + std::to_string(axis.size());
    const auto hit = stale_cache->find(key);
    if (hit != stale_cache->end()) return hit->second;  // never invalidated
    std::string fresh = summarize(fast_fit(d));
    stale_cache->emplace(std::move(key), fresh);
    return fresh;
  };
  oracle.reference = [](const PlantedDataset& d) {
    return summarize(reference_fit(d));
  };
  oracle.diff = text_diff;
  const auto result = check_differential(config, planted_dataset_gen(),
                                         planted_dataset_shrinker(), oracle);
  ASSERT_FALSE(result.passed())
      << "the differential oracle failed to detect a fit cache that is "
         "never invalidated";
  // The bug cannot survive more than a handful of cases: single-parameter
  // shapes repeat almost immediately.
  EXPECT_LT(result.counterexample->case_index, 50u);
}

}  // namespace
}  // namespace exareq::testkit
