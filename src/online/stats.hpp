// OnlineStats: the plain-value counters of one online-requirements service.
//
// Lives in the online core (below serve) so the serving tier can sum the
// stats of every shard's service and render one online status section,
// without depending on the service library itself.
#pragma once

#include <algorithm>
#include <cstdint>

namespace exareq::online {

struct OnlineStats {
  std::uint64_t batches_accepted = 0;
  std::uint64_t batches_rejected = 0;  ///< validation or buffer-bound errors
  std::uint64_t rows_ingested = 0;
  std::uint64_t refits = 0;          ///< published new versions
  std::uint64_t refit_failures = 0;  ///< fit threw; previous version kept
  std::uint64_t rollbacks = 0;       ///< quality guard restored previous
  std::uint64_t rows_pending = 0;    ///< staged, not yet refitted
  double staleness_seconds = 0.0;    ///< oldest pending row, worst key
  std::uint64_t last_version = 0;    ///< most recently published version id

  /// Folds another service's stats in: counts and pending rows add up,
  /// staleness and version take the worst / newest.
  void merge_from(const OnlineStats& other) {
    batches_accepted += other.batches_accepted;
    batches_rejected += other.batches_rejected;
    rows_ingested += other.rows_ingested;
    refits += other.refits;
    refit_failures += other.refit_failures;
    rollbacks += other.rollbacks;
    rows_pending += other.rows_pending;
    staleness_seconds = std::max(staleness_seconds, other.staleness_seconds);
    last_version = std::max(last_version, other.last_version);
  }
};

}  // namespace exareq::online
