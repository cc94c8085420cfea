// OnlineHooks: the callbacks the online-requirements service (src/online)
// installs on a ShardedServer shard, so the server can route `ingest`
// requests and report online counters without the serve library depending
// on the online one (which depends on serve).
#pragma once

#include <functional>
#include <string>

#include "online/stats.hpp"
#include "serve/protocol.hpp"

namespace exareq::serve {

/// The hook owner must outlive the server.
struct OnlineHooks {
  /// Handles one ingest request; returns the full response line and must
  /// not throw. Unset = ingest answered `error bad-request: ... not enabled`.
  std::function<std::string(const Request&)> ingest;
  /// The service's counters; the server sums them over shards for the
  /// status line and the `--status` report. Unset = no online section.
  std::function<online::OnlineStats()> stats;
};

}  // namespace exareq::serve
