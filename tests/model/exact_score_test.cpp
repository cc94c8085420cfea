// Bit-exact pins of the batched CV engine's scores.
//
// The fitter's storage and bookkeeping may change, but its arithmetic must
// not: every score below is the exact double the engine produced when these
// pins were recorded, written as a hexfloat. The data set and the bases are
// chosen so that every basis value is exactly representable (coordinates
// are powers of four, exponents are halves or integers, log2 of a power of
// two is an integer), so the pins hold on any IEEE-754 double platform that
// does not fuse multiply-adds, independent of the math library.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "model/fitter.hpp"

namespace exareq::model {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 5x5 grid over (p, n), a known 2-parameter requirement with a
/// deterministic +-2% perturbation (integer arithmetic, no RNG or libm).
MeasurementSet exact_data() {
  MeasurementSet data({"p", "n"});
  const double ps[] = {4.0, 16.0, 64.0, 256.0, 1024.0};
  const double ns[] = {16.0, 64.0, 256.0, 1024.0, 4096.0};
  int k = 0;
  for (double p : ps) {
    for (double n : ns) {
      const double log2p = std::log2(p);  // exact for powers of two
      const double clean = 3.0 * p * log2p + 0.5 * n * std::sqrt(n) + 40.0;
      const int jitter = (k * 7919) % 41 - 20;  // -20 .. 20
      data.add2(p, n, clean * (1.0 + 0.02 * jitter / 20.0));
      ++k;
    }
  }
  return data;
}

Term term(std::vector<Factor> factors) {
  Term t;
  t.coefficient = 1.0;
  t.factors = std::move(factors);
  return t;
}

struct Pinned {
  const char* name;
  std::vector<Term> basis;
  double score;
};

std::vector<Pinned> pinned_hypotheses() {
  const Term p = term({pmnf_factor(0, 1.0, 0.0)});
  const Term p_log = term({pmnf_factor(0, 1.0, 1.0)});
  const Term p_sqrt = term({pmnf_factor(0, 0.5, 0.0)});
  const Term p_sq = term({pmnf_factor(0, 2.0, 0.0)});
  const Term log_p = term({pmnf_factor(0, 0.0, 1.0)});
  const Term log_p_sq = term({pmnf_factor(0, 0.0, 2.0)});
  const Term allreduce = term({special_factor(0, SpecialFn::kAllreduce)});
  const Term n = term({pmnf_factor(1, 1.0, 0.0)});
  const Term n_15 = term({pmnf_factor(1, 1.5, 0.0)});
  const Term n_log = term({pmnf_factor(1, 1.0, 1.0)});
  const Term pn = term({pmnf_factor(0, 1.0, 0.0), pmnf_factor(1, 1.0, 0.0)});
  const Term p_n15 = term({pmnf_factor(0, 0.5, 0.0), pmnf_factor(1, 1.5, 0.0)});
  return {
      {"constant", {}, 0x1.0563d00600b74p+0},
      {"p", {p}, 0x1.2bc5d3efdb60cp-1},
      {"p*log p", {p_log}, 0x1.3082dd1a48c9fp-1},
      {"n^1.5", {n_15}, 0x1.f2076ca497389p-2},
      {"n", {n}, 0x1.46beedad24245p-1},
      {"p*n", {pn}, 0x1.b2218c6572edap-1},
      {"p*log p + n^1.5", {p_log, n_15}, 0x1.7daf0024257ccp-7},
      {"n^1.5 + p*log p", {n_15, p_log}, 0x1.7daf0024257c6p-7},
      {"p + n", {p, n}, 0x1.ee623abab021ap-2},
      {"p*log p + n", {p_log, n}, 0x1.773881f5b4636p-2},
      {"log p + n^1.5", {log_p, n_15}, 0x1.c7a4d69916a53p-2},
      {"p^0.5 + n*log n", {p_sqrt, n_log}, 0x1.48675dff6541dp-1},
      {"p*log p + n^1.5 + n", {p_log, n_15, n}, kInf},
      {"p*log p + n^1.5 + p", {p_log, n_15, p}, 0x1.32fc95cd802cp-7},
      {"p + p*log p + n^1.5", {p, p_log, n_15}, 0x1.32fc95cd80236p-7},
      {"log p + Allreduce(p)", {log_p, allreduce}, kInf},
      {"log^2 p + n^1.5", {log_p_sq, n_15}, 0x1.a276a3ffc618ap-2},
      {"p^2 + n", {p_sq, n}, 0x1.dbda3b3ffe41fp-2},
      {"p*n + p*log p", {pn, p_log}, 0x1.1082b825f15e3p-1},
      {"p*log p + n^1.5 + p*n", {p_log, n_15, pn}, 0x1.87725bd7d1fdfp-7},
      {"p + p*log p + n^1.5 + n", {p, p_log, n_15, n}, kInf},
      {"p^0.5*n^1.5 + log p + n", {p_n15, log_p, n}, 0x1.5257ff6ce372dp-1},
  };
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

void expect_bit_exact(double actual, const Pinned& pinned, const char* path,
                      std::size_t threads) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(pinned.score))
      << pinned.name << " via " << path << " at " << threads
      << " threads: got " << hex(actual) << ", pinned " << hex(pinned.score);
}

bool starts_with(const std::vector<Term>& basis,
                 const std::vector<Term>& prefix) {
  for (std::size_t t = 0; t < prefix.size(); ++t) {
    if (!basis[t].same_basis(prefix[t])) return false;
  }
  return true;
}

class ExactScoreTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactScoreTest, CvScoreMatchesPinnedBits) {
  const MeasurementSet data = exact_data();
  FitOptions options;
  options.threads = GetParam();
  FitEngine engine(data, options);
  for (const Pinned& pinned : pinned_hypotheses()) {
    expect_bit_exact(engine.cv_score(pinned.basis), pinned, "cv_score",
                     GetParam());
  }
}

TEST_P(ExactScoreTest, ScoreExtensionsMatchesPinnedBits) {
  // Each hypothesis is scored as prefix + its last term, with every
  // hypothesis sharing a prefix batched into one generation, on a fresh
  // engine so no score comes from the cv_score memo.
  const MeasurementSet data = exact_data();
  FitOptions options;
  options.threads = GetParam();
  FitEngine engine(data, options);
  const std::vector<Pinned> all = pinned_hypotheses();
  std::vector<bool> done(all.size(), false);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (done[i] || all[i].basis.empty()) continue;
    const std::vector<Term> prefix(all[i].basis.begin(),
                                   all[i].basis.end() - 1);
    std::vector<std::size_t> members;
    std::vector<Term> extensions;
    for (std::size_t j = i; j < all.size(); ++j) {
      if (done[j] || all[j].basis.size() != prefix.size() + 1) continue;
      if (!starts_with(all[j].basis, prefix)) continue;
      members.push_back(j);
      extensions.push_back(all[j].basis.back());
      done[j] = true;
    }
    const std::vector<double> scores =
        engine.score_extensions(prefix, extensions);
    ASSERT_EQ(scores.size(), members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      expect_bit_exact(scores[m], all[members[m]], "score_extensions",
                       GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FitterThreads, ExactScoreTest, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace exareq::model
