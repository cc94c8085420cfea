// ShardedServer: the multi-worker serving tier behind `exareq serve`.
//
// Applications are hash-partitioned across N worker shards. Each shard is
// one thread owning a full slice of the serving stack — its own
// ModelRegistry, result ShardedLruCache, QueryEngine, and (optionally) the
// online ingest hooks — so shard-local caches and registries never share a
// lock with another shard. The paper's co-design queries are per-app, so
// partitioning by app gives conflict-free parallelism without any shared
// mutable state on the hot path.
//
// Transport is one bounded MPSC queue per shard (support/mpsc_queue.hpp).
// Every batch travels as one work item: the binary request frame
// (binary_protocol.hpp), its enqueue time, and a reply slot — a promise the
// shard fulfils with the binary response frame. Each client thread waits on
// its own batches' reply slots, so any number of them can batch
// concurrently. Closing a shard's queue stops the shard once it has
// answered everything queued before the close.
//
// submit_batch is the one entry point: requests are bucketed by owning
// shard, each bucket is encoded into one frame and dispatched, buckets
// execute on their shards in parallel, and responses scatter back into
// request order. A single request is a batch of one. Backpressure is
// shed-per-bucket at admission (a bucket aimed at a shard whose queue
// already holds queue_capacity batches is shed at once with
// `error shed: ...`, never blocking the caller), and the deadline is
// checked when a shard picks a batch up (an expired batch answers
// `error deadline: ...` without executing).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/binary_protocol.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/online_hooks.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "support/mpsc_queue.hpp"

namespace exareq::serve {

struct ShardedServerOptions {
  /// Worker shards (>= 1). Each is one thread with its own registry/cache.
  std::size_t shards = 1;
  /// Per-shard admission bound: a bucket aimed at a shard whose queue
  /// already holds this many batches is shed instead of enqueued.
  std::size_t queue_capacity = 256;
  /// Maximum queueing delay before a batch is dropped at pickup; 0 disables.
  std::chrono::milliseconds deadline{0};
  /// Per-shard result-cache entries (0 disables caching) and LRU stripes.
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 4;
};

/// Alias for callers that name the serving options `ServerOptions`.
using ServerOptions = ShardedServerOptions;

/// One row of the per-shard `--status` table.
struct ShardStatus {
  std::size_t shard = 0;
  std::vector<std::string> apps;  ///< models this shard owns, sorted
  std::size_t queue_depth = 0;    ///< batches waiting in the shard's queue
  MetricsSnapshot metrics;        ///< this shard's full serving snapshot
};

class ShardedServer {
 public:
  /// Builds one shard's ModelRegistry (each shard owns a separate one, so
  /// a fitter must be safe to instantiate per shard). Empty = registries
  /// without fit-on-demand.
  using RegistryFactory = std::function<std::unique_ptr<ModelRegistry>()>;

  explicit ShardedServer(ShardedServerOptions options = {},
                         RegistryFactory factory = {});
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// The partition function: FNV-1a over the lower-cased application name,
  /// modulo the shard count — stable across runs and case-insensitive like
  /// the registry's keys.
  static std::size_t shard_of(std::string_view app, std::size_t shard_count);
  std::size_t shard_of(std::string_view app) const;

  std::size_t shard_count() const { return shards_.size(); }
  const ShardedServerOptions& options() const { return options_; }

  /// The shard's registry, e.g. for wiring a per-shard OnlineService.
  ModelRegistry& registry(std::size_t shard);

  /// Installs the online ingest/stats hooks for one shard. Call before
  /// traffic reaches the shard; the hook owner must outlive the server.
  void set_online_hooks(std::size_t shard, OnlineHooks hooks);

  /// Routes a preloaded bundle to its owning shard's registry.
  void insert(codesign::AppRequirements models);

  /// Loads a serialized bundle file into the owning shard's registry
  /// (which counts it in files_loaded); returns the application name.
  std::string load_file(const std::string& path);

  /// Answers a batch: bucket by shard, dispatch the buckets in parallel,
  /// scatter the responses back into request order. Status requests are
  /// answered at the front end (they need the cross-shard aggregate), after
  /// every request above them in the batch has been answered: the batch is
  /// split at each status, and a batch without one is a single fan-out.
  /// Thread-safe; any number of client threads may batch concurrently.
  std::vector<std::string> submit_batch(const std::vector<Request>& requests);

  /// Single-request conveniences (a batch of one).
  std::string handle(const Request& request);
  /// Parse + handle; malformed lines answer `error bad-request: ...`.
  std::string handle_line(const std::string& line);

  /// Aggregate snapshot: counters summed across shards (and the front
  /// end's own), latency quantiles over the merged histogram.
  MetricsSnapshot metrics() const;

  /// Per-shard rows for the `--status` table.
  std::vector<ShardStatus> shard_statuses() const;

  /// Aggregate status report plus the per-shard table (models owned,
  /// cache hits, queue depth, p50), the per-model table (owning shard,
  /// version, source, rows, fit error, age) and one online section summed
  /// over the shards' online hooks.
  std::string status_report() const;

  /// Stops accepting work, waits for in-flight batches, closes every
  /// shard's queue and joins the shards, publishes serve.shard.* obs
  /// metrics. Idempotent; called by the destructor.
  void stop();

 private:
  /// One dispatched bucket: its request frame, when it was enqueued, and
  /// the slot the shard answers with the response frame.
  struct Batch {
    std::string frame;
    std::int64_t enqueue_ns = 0;
    std::promise<std::string> reply;
  };

  struct Shard {
    explicit Shard(std::size_t capacity) : queue(capacity) {}
    BoundedMpscQueue<Batch> queue;
    std::unique_ptr<ModelRegistry> registry;
    std::unique_ptr<ShardedLruCache> cache;
    std::unique_ptr<QueryEngine> engine;
    OnlineHooks online;
    Metrics metrics;
    std::thread thread;
  };

  /// Fans requests [begin, end) (no status among them) out to their
  /// shards and writes each answer into its slot of `responses`.
  void dispatch(const std::vector<Request>& requests, std::size_t begin,
                std::size_t end, std::vector<std::string>& responses);
  void shard_loop(std::size_t shard_index);
  std::string process_one(Shard& shard, const binary::RequestView& view);
  std::string front_status_line();
  /// Online stats summed over every shard with a stats hook; nullopt when
  /// no shard has one.
  std::optional<online::OnlineStats> online_stats() const;
  void publish_metrics();

  ShardedServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Front-end-side counters: status answers, sheds, parse failures.
  Metrics front_metrics_;
  std::atomic<std::uint64_t> batches_{0};  ///< frames dispatched to shards

  std::atomic<bool> stopping_{false};
  bool joined_ = false;  ///< guarded by lifecycle_ (unique)

  /// submit_batch holds this shared; stop() takes it unique so queues are
  /// only closed once every in-flight batch has its responses.
  mutable std::shared_mutex lifecycle_;
};

}  // namespace exareq::serve
