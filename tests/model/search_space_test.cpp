#include "model/search_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace exareq::model {
namespace {

TEST(SearchSpaceTest, PaperGridContainsEighthsAndThirds) {
  const SearchSpace space = SearchSpace::paper_default();
  const auto contains = [&space](double value) {
    return std::any_of(space.poly_exponents.begin(), space.poly_exponents.end(),
                       [value](double e) { return std::fabs(e - value) < 1e-9; });
  };
  EXPECT_TRUE(contains(0.0));
  EXPECT_TRUE(contains(0.125));
  EXPECT_TRUE(contains(0.25));
  EXPECT_TRUE(contains(0.375));  // icoFoam communication exponent
  EXPECT_TRUE(contains(1.0 / 3.0));
  EXPECT_TRUE(contains(2.0 / 3.0));
  EXPECT_TRUE(contains(1.5));
  EXPECT_TRUE(contains(3.0));
  EXPECT_FALSE(contains(3.125));  // capped at 3
}

TEST(SearchSpaceTest, PaperGridLogExponents) {
  const SearchSpace space = SearchSpace::paper_default();
  EXPECT_EQ(space.log_exponents,
            (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0}));
}

TEST(SearchSpaceTest, PolyGridIsSortedAndUnique) {
  const SearchSpace space = SearchSpace::paper_default();
  for (std::size_t i = 1; i < space.poly_exponents.size(); ++i) {
    EXPECT_GT(space.poly_exponents[i], space.poly_exponents[i - 1]);
  }
  // 25 eighths + 10 thirds - 4 shared (0, 1, 2, 3) = 31 distinct values.
  EXPECT_EQ(space.poly_exponents.size(), 31u);
}

TEST(SearchSpaceTest, FactorsExcludeIdentity) {
  const SearchSpace space = SearchSpace::paper_default();
  for (const Factor& f : space.factors_for(0)) {
    EXPECT_FALSE(f.is_identity());
  }
}

TEST(SearchSpaceTest, FactorCountMatchesEnumeration) {
  const SearchSpace space = SearchSpace::paper_default();
  EXPECT_EQ(space.factors_for(0).size(), 31u * 5u - 1u);
  EXPECT_EQ(space.factors_for(0, kCollectives).size(), 31u * 5u - 1u + 3u);
}

TEST(SearchSpaceTest, FactorsCarryParameterIndex) {
  const SearchSpace space = SearchSpace::coarse();
  for (const Factor& f : space.factors_for(3)) {
    EXPECT_EQ(f.parameter, 3u);
  }
}

TEST(SearchSpaceTest, FactorsSortedByComplexity) {
  const SearchSpace space = SearchSpace::paper_default();
  const auto factors = space.factors_for(0);
  for (std::size_t i = 1; i < factors.size(); ++i) {
    EXPECT_LE(factors[i - 1].complexity(), factors[i].complexity());
  }
}

TEST(SearchSpaceTest, CollectivesAppendedWhenEnabled) {
  const SearchSpace space = SearchSpace::coarse();
  const auto specials = [&](std::span<const SpecialFn> collectives) {
    std::vector<SpecialFn> found;
    for (const Factor& f : space.factors_for(0, collectives)) {
      if (f.special != SpecialFn::kNone) found.push_back(f.special);
    }
    return found;
  };
  EXPECT_EQ(specials(kCollectives),
            std::vector<SpecialFn>(kCollectives.begin(), kCollectives.end()));
  EXPECT_TRUE(specials({}).empty());
  // Only the named collectives, in canonical order whatever the input's.
  const std::vector<SpecialFn> narrowed{SpecialFn::kAlltoall,
                                        SpecialFn::kAllreduce};
  EXPECT_EQ(specials(narrowed),
            (std::vector<SpecialFn>{SpecialFn::kAllreduce,
                                    SpecialFn::kAlltoall}));
}

TEST(SearchSpaceTest, CoarseGridIsSubsetSized) {
  const SearchSpace coarse = SearchSpace::coarse();
  const SearchSpace paper = SearchSpace::paper_default();
  EXPECT_LT(coarse.factors_for(0).size(), paper.factors_for(0).size());
}

}  // namespace
}  // namespace exareq::model
