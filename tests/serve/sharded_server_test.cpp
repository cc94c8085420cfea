#include "serve/sharded_server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "codesign/requirements.hpp"
#include "model/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"

using exareq::serve::MetricsSnapshot;
using exareq::serve::ModelRegistry;
using exareq::serve::Request;
using exareq::serve::RequestKind;
using exareq::serve::ShardedServer;
using exareq::serve::ShardedServerOptions;
using exareq::serve::testing::make_test_requirements;

namespace {

const std::vector<std::string> kApps = {"lulesh", "hpcg",  "amg",
                                        "relearn", "milc", "kripke",
                                        "quicksilver", "laghos"};

ShardedServerOptions options_with(std::size_t shards) {
  ShardedServerOptions options;
  options.shards = shards;
  return options;
}

void load_apps(ShardedServer& server) {
  for (const std::string& app : kApps) {
    server.insert(make_test_requirements(app));
  }
}

Request eval_request(const std::string& app, double p, double n) {
  Request request;
  request.kind = RequestKind::kEval;
  request.app = app;
  request.metric = "flops";
  request.p = p;
  request.n = n;
  return request;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Writes `name`'s synthetic models as a bundle file; returns the path.
std::string write_bundle_file(const std::string& name) {
  const exareq::codesign::AppRequirements app = make_test_requirements(name);
  exareq::model::ModelBundle bundle;
  bundle.name = name;
  bundle.models = {{"footprint", app.footprint},
                   {"flops", app.flops},
                   {"comm_bytes", app.comm_bytes},
                   {"loads_stores", app.loads_stores},
                   {"stack_distance", app.stack_distance}};
  const std::string path = "/tmp/exareq_shard_" + name + "_" +
                           std::to_string(::getpid()) + ".models";
  std::ofstream(path) << exareq::model::serialize_bundle(bundle);
  return path;
}

/// Fit-on-demand registries whose fitter blocks until open(): a request
/// for an app no shard has loaded parks its shard inside the fit, so
/// whatever is submitted to that shard next stays queued.
class GatedFit {
 public:
  ShardedServer::RegistryFactory factory() {
    return [this] {
      return std::make_unique<ModelRegistry>([this](const std::string& name) {
        fitting_.store(true);
        released_.wait();
        return make_test_requirements(name);
      });
    };
  }

  /// Submits `eval gated ...` and returns once the fitter is running.
  /// With a deadline the request can expire before its shard picks it up
  /// (slow thread start, sanitizers); each such attempt is retried and
  /// counted in `expired`.
  std::future<std::string> park(ShardedServer& server, int& expired) {
    for (;;) {
      std::future<std::string> parked =
          std::async(std::launch::async, [&server] {
            return server.handle_line("eval gated flops 4 32");
          });
      while (!fitting_.load()) {
        if (parked.wait_for(std::chrono::milliseconds(1)) ==
            std::future_status::ready) {
          break;
        }
      }
      if (fitting_.load()) return parked;
      EXPECT_TRUE(starts_with(parked.get(), "error deadline"));
      ++expired;
    }
  }

  void open() { gate_.set_value(); }

 private:
  std::atomic<bool> fitting_{false};
  std::promise<void> gate_;
  std::shared_future<void> released_ = gate_.get_future().share();
};

/// Polls until shard 0 holds `depth` queued batches.
void wait_for_queue_depth(const ShardedServer& server, std::size_t depth) {
  while (server.shard_statuses()[0].queue_depth != depth) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

TEST(ShardedServerTest, PartitionIsStableAndCaseInsensitive) {
  EXPECT_EQ(ShardedServer::shard_of("lulesh", 4),
            ShardedServer::shard_of("LULESH", 4));
  EXPECT_EQ(ShardedServer::shard_of("lulesh", 4),
            ShardedServer::shard_of("lulesh", 4));
  // With enough apps every shard of a small cluster owns at least one.
  std::set<std::size_t> hit;
  for (const std::string& app : kApps) {
    hit.insert(ShardedServer::shard_of(app, 2));
  }
  EXPECT_EQ(hit.size(), 2u);
}

TEST(ShardedServerTest, AnswersMatchSingleEngineAcrossShardCounts) {
  // Reference: one unsharded engine over all apps.
  ModelRegistry reference_registry;
  for (const std::string& app : kApps) {
    reference_registry.insert(make_test_requirements(app));
  }
  exareq::serve::QueryEngine reference(reference_registry);

  std::vector<std::string> lines;
  for (const std::string& app : kApps) {
    lines.push_back("eval " + app + " flops 64 100");
    lines.push_back("eval " + app + " stack_distance 1 4096");
    lines.push_back("invert " + app + " 1024 1e9");
    lines.push_back("upgrade " + app + " 512 2e9");
    lines.push_back("strawman " + app);
  }

  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardedServer server(options_with(shards));
    load_apps(server);
    for (const std::string& line : lines) {
      EXPECT_EQ(server.handle_line(line), reference.answer_line(line))
          << "shards=" << shards << " line=" << line;
    }
  }
}

TEST(ShardedServerTest, BatchPreservesRequestOrderAcrossShards) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::vector<Request> batch;
  std::vector<std::string> expected;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& app : kApps) {
      const double n = 10.0 + round;
      batch.push_back(eval_request(app, 64.0, n));
      expected.push_back(server.handle(eval_request(app, 64.0, n)));
    }
  }
  const std::vector<std::string> responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(responses[i], expected[i]) << "index " << i;
  }
}

TEST(ShardedServerTest, ModelsLandOnExactlyOneShard) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::size_t total = 0;
  for (const auto& status : server.shard_statuses()) {
    total += status.apps.size();
    for (const std::string& app : status.apps) {
      EXPECT_EQ(server.shard_of(app), status.shard) << app;
    }
  }
  EXPECT_EQ(total, kApps.size());
}

TEST(ShardedServerTest, UnknownAppAndBadRequestsAnswerErrors) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("eval nosuch flops 64 100").rfind("error", 0),
            0u);
  EXPECT_EQ(server.handle_line("eval lulesh watts 64 100"),
            "error bad-request: unknown metric 'watts' (expected "
            "footprint|flops|comm_bytes|loads_stores|stack_distance|"
            "io_bytes|energy_proxy)");
  EXPECT_EQ(server.handle_line("bogus").rfind("error bad-request", 0), 0u);
}

TEST(ShardedServerTest, StatusAnsweredAtFrontEndWithShardCount) {
  ShardedServer server(options_with(3));
  load_apps(server);
  server.handle_line("eval lulesh flops 64 100");
  Request status;
  status.kind = RequestKind::kStatus;
  const std::string response = server.handle(status);
  EXPECT_EQ(response.rfind("ok status ", 0), 0u);
  EXPECT_NE(response.find("shards=3"), std::string::npos);
  EXPECT_NE(response.find("requests="), std::string::npos);
  EXPECT_EQ(response.find("online_"), std::string::npos) << response;
}

TEST(ShardedServerTest, StatusSumsOnlineStatsOverShardsOnce) {
  ShardedServer server(options_with(3));
  load_apps(server);
  exareq::online::OnlineStats first;
  first.rows_ingested = 2;
  first.rows_pending = 1;
  first.refits = 1;
  first.staleness_seconds = 1.5;
  first.last_version = 4;
  exareq::online::OnlineStats second;
  second.rows_ingested = 5;
  second.rows_pending = 2;
  second.refits = 2;
  second.staleness_seconds = 0.25;
  second.last_version = 7;
  exareq::serve::OnlineHooks hooks;
  hooks.stats = [first] { return first; };
  server.set_online_hooks(0, hooks);
  hooks.stats = [second] { return second; };
  server.set_online_hooks(2, hooks);

  const std::string status = server.handle_line("status");
  EXPECT_EQ(count_of(status, "online_rows="), 1u) << status;
  // Counts and pending rows add up; staleness and version take the max.
  for (const char* field :
       {" online_rows=7 ", " online_pending=3 ", " online_refits=3 ",
        " online_staleness_s=1.500 "}) {
    EXPECT_NE(status.find(field), std::string::npos) << field << status;
  }
  EXPECT_TRUE(status.ends_with(" online_version=7")) << status;

  const std::string report = server.status_report();
  EXPECT_EQ(count_of(report, "rows ingested"), 1u) << report;
  EXPECT_EQ(count_of(report, "last version"), 1u) << report;
}

TEST(ShardedServerTest, StatusReportListsEveryShard) {
  ShardedServer server(options_with(4));
  load_apps(server);
  server.handle_line("eval lulesh flops 64 100");
  server.handle_line("eval lulesh flops 64 100");
  const std::string report = server.status_report();
  EXPECT_NE(report.find("Shard"), std::string::npos);
  EXPECT_NE(report.find("Queue"), std::string::npos);
  EXPECT_NE(report.find("p50 [us]"), std::string::npos);
  // One per-model row for every loaded app, naming its owning shard.
  for (const char* column : {"Model", "Version", "Source", "Rows",
                             "MeanRelErr", "Age [s]"}) {
    EXPECT_NE(report.find(column), std::string::npos) << column;
  }
  for (const std::string& app : kApps) {
    std::istringstream lines(report);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line)) {
      // A table row: | Model | Shard | Version | Source | ... |
      std::istringstream fields(line);
      std::string bar, name, shard, version, source;
      fields >> bar >> name >> bar >> shard >> bar >> version >> bar >> source;
      if (name != app) continue;
      ++rows;
      EXPECT_EQ(shard, std::to_string(server.shard_of(app))) << line;
      EXPECT_EQ(version, "1") << line;
      EXPECT_EQ(source, "insert") << line;
    }
    EXPECT_EQ(rows, 1u) << app << "\n" << report;
  }
  // No shard has online hooks, so there is no online section.
  EXPECT_EQ(report.find("rows ingested"), std::string::npos);
}

TEST(ShardedServerTest, PerShardCachesCountHitsLocally) {
  ShardedServer server(options_with(4));
  load_apps(server);
  const Request request = eval_request("lulesh", 64.0, 100.0);
  server.handle(request);  // miss
  server.handle(request);  // hit, on lulesh's shard only
  const auto statuses = server.shard_statuses();
  const std::size_t owner = server.shard_of("lulesh");
  for (const auto& status : statuses) {
    if (status.shard == owner) {
      EXPECT_EQ(status.metrics.cache_hits, 1u);
      EXPECT_EQ(status.metrics.cache_misses, 1u);
    } else {
      EXPECT_EQ(status.metrics.cache_hits, 0u);
      EXPECT_EQ(status.metrics.cache_misses, 0u);
    }
  }
  EXPECT_EQ(server.metrics().cache_hits, 1u);
}

TEST(ShardedServerTest, MixedBatchAnswersEachRecordIndependently) {
  ShardedServer server(options_with(2));
  load_apps(server);
  std::vector<Request> batch;
  batch.push_back(eval_request("lulesh", 64.0, 100.0));
  Request bad = eval_request("hpcg", 0.5, 100.0);  // coordinates below 1
  batch.push_back(bad);
  Request status;
  status.kind = RequestKind::kStatus;
  batch.push_back(status);
  const auto responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].rfind("ok eval ", 0), 0u);
  EXPECT_EQ(responses[1], "error bad-request: eval coordinates must be >= 1");
  EXPECT_EQ(responses[2].rfind("ok status ", 0), 0u);
}

TEST(ShardedServerTest, IngestWithoutHooksIsRejected) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("ingest lulesh p,n,footprint;64,100,123"),
            "error bad-request: ingest is not enabled on this server");
}

TEST(ShardedServerTest, IngestRoutesToTheOwningShardHook) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::vector<std::atomic<int>> calls(4);
  for (std::size_t i = 0; i < 4; ++i) {
    exareq::serve::OnlineHooks hooks;
    hooks.ingest = [&calls, i](const Request& request) {
      calls[i].fetch_add(1);
      return exareq::serve::ok_response("ingest shard=" + std::to_string(i) +
                                        " app=" + request.app);
    };
    server.set_online_hooks(i, hooks);
  }
  const std::size_t owner = server.shard_of("lulesh");
  const std::string response =
      server.handle_line("ingest lulesh p,n,footprint;64,100,123");
  EXPECT_EQ(response,
            "ok ingest shard=" + std::to_string(owner) + " app=lulesh");
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(calls[i].load(), i == owner ? 1 : 0);
  }
}

TEST(ShardedServerTest, DeadlineExpiredBatchesAreDropped) {
  ShardedServerOptions options = options_with(1);
  options.deadline = std::chrono::milliseconds(1);
  ShardedServer server(options);
  load_apps(server);
  // Saturate the single shard with a slow-ish batch, then observe that a
  // batch enqueued behind it can expire. Deterministic alternative: the
  // deadline is checked against the front end's enqueue stamp, so a batch
  // that sat in the mailbox past the deadline answers `error deadline`.
  // Simplest deterministic probe: drive many batches from several threads
  // and require only that every response is one of the two legal outcomes.
  std::atomic<int> deadline_errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const std::string response =
            server.handle(eval_request("lulesh", 64.0, 100.0 + i % 7));
        if (response.rfind("error deadline", 0) == 0) {
          deadline_errors.fetch_add(1);
        } else {
          EXPECT_EQ(response.rfind("ok eval ", 0), 0u) << response;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  // Whether any deadline fired is timing-dependent; the invariant under
  // test is that expired work is *counted* as dropped, never half-done.
  EXPECT_EQ(server.metrics().deadline_drops,
            static_cast<std::uint64_t>(deadline_errors.load()));
}

TEST(ShardedServerTest, ShedsWhenAShardQueueIsFull) {
  ShardedServerOptions options = options_with(1);
  options.queue_capacity = 1;
  ShardedServer server(options);
  load_apps(server);
  // Many concurrent clients against capacity 1: some must shed.
  std::atomic<int> sheds{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const std::string response =
            server.handle(eval_request("lulesh", 64.0, 100.0 + i % 5));
        if (response.rfind("error shed", 0) == 0) {
          sheds.fetch_add(1);
        } else {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(sheds.load() + answered.load(), 200);
  EXPECT_EQ(server.metrics().sheds, static_cast<std::uint64_t>(sheds.load()));
  EXPECT_EQ(server.metrics().requests, 200u);
}

TEST(ShardedServerTest, StopDrainsThenRejectsNewWork) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 100").rfind("ok", 0), 0u);
  server.stop();
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 100"),
            "error shutdown: server is no longer accepting requests");
  server.stop();  // idempotent
}

TEST(ShardedServerTest, LoadFileRoutesToOwningShard) {
  const std::string path = write_bundle_file("lulesh");
  ShardedServer server(options_with(4));
  EXPECT_EQ(server.load_file(path), "lulesh");
  std::remove(path.c_str());
  const std::size_t owner = server.shard_of("lulesh");
  EXPECT_EQ(server.registry(owner).app_names(),
            std::vector<std::string>{"lulesh"});
  // The load is counted once, on the shard that owns the app.
  EXPECT_EQ(server.metrics().files_loaded, 1u);
  for (const auto& status : server.shard_statuses()) {
    EXPECT_EQ(status.metrics.files_loaded, status.shard == owner ? 1u : 0u)
        << "shard " << status.shard;
    EXPECT_EQ(status.metrics.apps_loaded, status.shard == owner ? 1u : 0u)
        << "shard " << status.shard;
  }
  EXPECT_NE(server.status_report().find(" file "), std::string::npos);
}

// ---------------------------------------------------------------------------
// The serving contract: answers, caching, admission, deadlines, shutdown.

TEST(ServeServerTest, AnswersAreBitIdenticalToDirectLibraryCalls) {
  ShardedServer server(options_with(2));
  server.insert(make_test_requirements("alpha"));
  server.insert(make_test_requirements("beta"));

  const exareq::codesign::AppRequirements direct =
      make_test_requirements("alpha");
  EXPECT_EQ(server.handle_line("eval alpha flops 64 1024"),
            "ok eval " + exareq::serve::render_value(
                             direct.flops.evaluate2(64.0, 1024.0)));
  EXPECT_EQ(server.handle_line("eval alpha stack_distance 1 777"),
            "ok eval " + exareq::serve::render_value(
                             direct.stack_distance.evaluate1(777.0)));

  const exareq::codesign::FilledSystem filled =
      exareq::codesign::fill_memory(direct, {4096.0, 2.0e9});
  EXPECT_EQ(server.handle_line("invert alpha 4096 2e9"),
            "ok invert " +
                exareq::serve::render_value(filled.problem_size_per_process) +
                ' ' + exareq::serve::render_value(filled.overall_problem_size));
}

TEST(ServeServerTest, ConcurrentMixedWorkloadMatchesUncachedEngine) {
  std::vector<std::string> lines;
  for (const std::string& app : kApps) {
    for (const char* metric :
         {"footprint", "flops", "comm_bytes", "loads_stores"}) {
      for (int p : {4, 16, 64}) {
        lines.push_back("eval " + app + ' ' + metric + ' ' +
                        std::to_string(p) + " 512");
      }
    }
    lines.push_back("invert " + app + " 1024 1e9");
    lines.push_back("upgrade " + app + " 1024 1e9");
    lines.push_back("strawman " + app);
  }
  // Duplicates exercise the caches under concurrency.
  const std::vector<std::string> first_round = lines;
  lines.insert(lines.end(), first_round.begin(), first_round.end());

  // Reference answers from one uncached engine, computed serially.
  ModelRegistry reference_registry;
  for (const std::string& app : kApps) {
    reference_registry.insert(make_test_requirements(app));
  }
  exareq::serve::QueryEngine reference(reference_registry);
  std::vector<std::string> expected;
  expected.reserve(lines.size());
  for (const std::string& line : lines) {
    expected.push_back(reference.answer_line(line));
  }

  ShardedServerOptions options = options_with(4);
  options.queue_capacity = lines.size();
  ShardedServer server(options);
  load_apps(server);
  constexpr std::size_t kClients = 4;
  std::vector<std::string> responses(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < lines.size(); i += kClients) {
        responses[i] = server.handle_line(lines[i]);
      }
    });
  }
  for (auto& client : clients) client.join();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(responses[i], expected[i]) << lines[i];
  }

  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(snapshot.requests, lines.size());
  EXPECT_EQ(snapshot.responses_ok, lines.size());
  EXPECT_EQ(snapshot.responses_error, 0u);
  EXPECT_EQ(snapshot.sheds, 0u);
  // Every request consults its shard's cache exactly once.
  EXPECT_EQ(snapshot.cache_hits + snapshot.cache_misses, lines.size());
  EXPECT_GE(snapshot.cache_hits, 1u);
}

TEST(ServeServerTest, RepeatedQueryHitsCacheAndSkipsFitPath) {
  std::atomic<int> fit_calls{0};
  ShardedServer server(options_with(2), [&fit_calls] {
    return std::make_unique<ModelRegistry>([&fit_calls](const std::string& name) {
      fit_calls.fetch_add(1);
      return make_test_requirements(name);
    });
  });

  const std::string first = server.handle_line("eval ondemand flops 8 64");
  ASSERT_TRUE(starts_with(first, "ok eval ")) << first;
  EXPECT_EQ(fit_calls.load(), 1);
  const MetricsSnapshot after_first = server.metrics();
  EXPECT_EQ(after_first.cache_misses, 1u);
  EXPECT_EQ(after_first.fits_started, 1u);
  const std::uint64_t lookups_after_first = after_first.registry_lookups;

  // Same query, different but canonically equal spelling.
  const std::string second = server.handle_line("eval ONDEMAND flops 8.0 6.4e1");
  EXPECT_EQ(second, first);
  const MetricsSnapshot after_second = server.metrics();
  EXPECT_EQ(after_second.cache_hits, 1u);
  EXPECT_EQ(after_second.cache_misses, 1u);
  EXPECT_EQ(after_second.fits_started, 1u);  // no second fit
  EXPECT_EQ(fit_calls.load(), 1);            // fitter not re-entered
  EXPECT_EQ(after_second.registry_lookups,   // registry not even consulted
            lookups_after_first);
  EXPECT_GT(after_second.cache_hit_rate(), 0.0);
}

TEST(ServeServerTest, FullQueueShedsWithExplicitError) {
  GatedFit gated;
  ShardedServerOptions options = options_with(1);
  options.queue_capacity = 1;
  ShardedServer server(options, gated.factory());
  server.insert(make_test_requirements("alpha"));

  int expired = 0;
  std::future<std::string> slow = gated.park(server, expired);
  // The shard is inside the fit; this request fills its one queue slot.
  std::future<std::string> queued = std::async(std::launch::async, [&server] {
    return server.handle_line("eval alpha flops 4 64");
  });
  wait_for_queue_depth(server, 1);

  // The queue is full: the next request is answered at admission, while
  // the shard is still blocked.
  EXPECT_EQ(server.handle_line("eval alpha flops 4 128"),
            "error shed: admission queue full (capacity 1)");
  EXPECT_EQ(server.metrics().sheds, 1u);

  gated.open();
  EXPECT_TRUE(starts_with(slow.get(), "ok eval "));
  EXPECT_TRUE(starts_with(queued.get(), "ok eval "));
  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(expired, 0);
  EXPECT_EQ(snapshot.requests, 3u);
  EXPECT_EQ(snapshot.responses_ok, 2u);
  EXPECT_EQ(snapshot.responses_error, 1u);
}

TEST(ServeServerTest, ExpiredDeadlineDropsQueuedRequest) {
  GatedFit gated;
  ShardedServerOptions options = options_with(1);
  options.deadline = std::chrono::milliseconds(20);
  ShardedServer server(options, gated.factory());
  server.insert(make_test_requirements("alpha"));

  int expired = 0;
  std::future<std::string> slow = gated.park(server, expired);
  std::future<std::string> stale = std::async(std::launch::async, [&server] {
    return server.handle_line("eval alpha flops 4 32");
  });
  wait_for_queue_depth(server, 1);
  // Enqueued before the depth became visible, so after this sleep it has
  // waited past its deadline however soon the shard picks it up.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gated.open();

  EXPECT_EQ(stale.get(),
            "error deadline: request waited longer than 20 ms for a worker");
  EXPECT_TRUE(starts_with(slow.get(), "ok eval "));
  EXPECT_EQ(server.metrics().deadline_drops,
            static_cast<std::uint64_t>(1 + expired));
}

TEST(ServeServerTest, MalformedLinesAreErrorsNotCrashes) {
  ShardedServer server(options_with(2));
  server.insert(make_test_requirements("alpha"));
  EXPECT_TRUE(starts_with(server.handle_line("frobnicate"), "error bad-request"));
  EXPECT_TRUE(starts_with(server.handle_line("eval alpha watts 4 32"),
                          "error bad-request"));
  // Unknown app, no fitter configured.
  EXPECT_TRUE(starts_with(server.handle_line("eval nosuch flops 4 32"),
                          "error bad-request"));
  EXPECT_EQ(server.metrics().responses_error, 3u);
}

TEST(ServeServerTest, StatusRequestAndReportExposeCounters) {
  ShardedServer server(options_with(2));
  server.insert(make_test_requirements("alpha"));
  server.insert(make_test_requirements("beta"));
  EXPECT_TRUE(starts_with(server.handle_line("eval alpha flops 4 32"), "ok eval"));

  const std::string status = server.handle_line("status");
  EXPECT_TRUE(starts_with(status, "ok status ")) << status;
  EXPECT_NE(status.find("requests="), std::string::npos);
  EXPECT_NE(status.find("cache_misses=1"), std::string::npos) << status;
  EXPECT_NE(status.find("apps=2"), std::string::npos) << status;
  EXPECT_NE(status.find("mean_us="), std::string::npos) << status;

  const std::string report = server.status_report();
  for (const char* needle : {"requests", "cache", "registry", "p99 latency",
                             "mean latency", "hit rate", "Age [s]"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  EXPECT_GT(server.metrics().mean_latency_us, 0.0);
}

TEST(ServeServerTest, StopDrainsAdmittedRequestsAndRejectsNewOnes) {
  GatedFit gated;
  ShardedServerOptions options = options_with(1);
  options.queue_capacity = 16;
  ShardedServer server(options, gated.factory());
  server.insert(make_test_requirements("alpha"));

  int expired = 0;
  std::vector<std::future<std::string>> admitted;
  admitted.push_back(gated.park(server, expired));
  constexpr std::size_t kQueued = 8;
  for (std::size_t i = 0; i < kQueued; ++i) {
    admitted.push_back(std::async(std::launch::async, [&server, i] {
      return server.handle_line("eval alpha flops 4 " + std::to_string(32 + i));
    }));
  }
  wait_for_queue_depth(server, kQueued);

  auto& registry_metrics = exareq::obs::MetricRegistry::instance();
  const std::uint64_t published_before =
      registry_metrics.counter("serve.shard.requests").value();
  const std::uint64_t latencies_before =
      registry_metrics.histogram("serve.shard.latency_us").count();
  std::future<void> stopping =
      std::async(std::launch::async, [&server] { server.stop(); });
  // stop() waits for every admitted batch, and those wait on the fit.
  EXPECT_EQ(stopping.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  gated.open();
  stopping.get();
  for (auto& response : admitted) {
    EXPECT_TRUE(starts_with(response.get(), "ok eval "));
  }
  EXPECT_EQ(server.handle_line("eval alpha flops 4 32"),
            "error shutdown: server is no longer accepting requests");

  // stop() publishes the totals into the process-global registry exactly
  // once; a second stop() (and the destructor's) adds nothing.
  EXPECT_EQ(registry_metrics.counter("serve.shard.requests").value(),
            published_before + 1 + kQueued);
  server.stop();
  EXPECT_EQ(registry_metrics.counter("serve.shard.requests").value(),
            published_before + 1 + kQueued);
  EXPECT_EQ(registry_metrics.histogram("serve.shard.latency_us").count(),
            latencies_before + 1 + kQueued);
}

// End-to-end: fit models through the one-shot CLI, persist them with
// --models-out, load the bundle into a sharded server, and check that
// served answers are bit-identical to evaluating the parsed models directly.
TEST(ServeCliIntegrationTest, ServedAnswersMatchOneShotCliModels) {
  const std::string path = "/tmp/exareq_serve_cli_models_" +
                           std::to_string(::getpid()) + ".models";
  std::ostringstream out, err;
  const int code = exareq::cli::run_cli(
      {"model", "LULESH", "--processes", "2,4,8,16,32", "--sizes",
       "16,32,64,128,256", "--models-out", path},
      out, err);
  ASSERT_EQ(code, 0) << err.str();

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const exareq::model::ModelBundle bundle =
      exareq::model::parse_bundle(content.str());

  ShardedServer server(options_with(2));
  EXPECT_EQ(server.load_file(path), bundle.name);
  EXPECT_EQ(server.metrics().files_loaded, 1u);
  for (const auto& [label, model] : bundle.models) {
    for (const double p : {8.0, 1e6}) {
      for (const double n : {128.0, 1e9}) {
        const double direct = label == "stack_distance" ? model.evaluate1(n)
                                                        : model.evaluate2(p, n);
        EXPECT_EQ(server.handle_line("eval " + bundle.name + ' ' + label + ' ' +
                                     exareq::serve::render_value(p) + ' ' +
                                     exareq::serve::render_value(n)),
                  "ok eval " + exareq::serve::render_value(direct))
            << label;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedServerConcurrencyTest, ParallelClientsGetConsistentAnswers) {
  ShardedServer server(options_with(4));
  load_apps(server);
  // Precompute expected answers single-threaded.
  std::vector<Request> batch;
  for (const std::string& app : kApps) {
    for (int n = 10; n < 26; ++n) {
      batch.push_back(eval_request(app, 64.0, n));
    }
  }
  const std::vector<std::string> expected = server.submit_batch(batch);

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        const std::vector<std::string> responses = server.submit_batch(batch);
        if (responses != expected) failed.store(true);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.metrics().responses_ok,
            static_cast<std::uint64_t>(batch.size()) * (1 + 6 * 20));
}

TEST(ShardedServerConcurrencyTest, ConcurrentSubmitAndStopIsSafe) {
  for (int iteration = 0; iteration < 5; ++iteration) {
    ShardedServer server(options_with(2));
    load_apps(server);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < 30; ++i) {
          const std::string response =
              server.handle(eval_request("lulesh", 64.0, 100.0 + i));
          const bool ok = response.rfind("ok eval ", 0) == 0;
          const bool shutdown = response.rfind("error shutdown", 0) == 0;
          EXPECT_TRUE(ok || shutdown) << response;
        }
      });
    }
    server.stop();
    for (auto& client : clients) client.join();
  }
}
