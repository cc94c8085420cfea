// The serve workload's request mix, shared with the codec probe.
#pragma once

#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "util.hpp"

namespace perfbench {

/// Read requests over a fixed key space: eval (every metric over a 16x16
/// (p, n) grid), invert and upgrade (16 process counts x 8 memory sizes) and
/// strawman, for every app. The class is drawn by fixed shares (80% eval,
/// 10% invert, 10% upgrade or strawman) and the key within the class by
/// Zipf(0.8) over a seeded permutation, so every seed sees the same mix and
/// skew but different hot keys. Keys the one-shot engine answers with an
/// error (an app that cannot fill a small memory) are left out, so no
/// request of the workload fails on correct code.
class RequestMix {
 public:
  RequestMix(const std::vector<std::string>& apps, exareq::serve::QueryEngine& oracle,
             std::uint64_t seed);
  const exareq::serve::Request& next(Rng& rng) const;
  std::size_t key_count() const;

 private:
  struct Kind {
    double share;
    std::vector<exareq::serve::Request> keys;
  };
  std::vector<Kind> kinds_;
  std::vector<Zipf> zipf_;
};

}  // namespace perfbench
