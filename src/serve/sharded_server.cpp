#include "serve/sharded_server.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

namespace exareq::serve {
namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds one shard's cache and registry counters into `snapshot`.
void add_store_stats(const ShardedLruCache& cache,
                     const ModelRegistry& registry, MetricsSnapshot& snapshot) {
  const CacheStats cached = cache.stats();
  snapshot.cache_hits += cached.hits;
  snapshot.cache_misses += cached.misses;
  snapshot.cache_evictions += cached.evictions;
  snapshot.cache_entries += cached.entries;
  const RegistryStats stored = registry.stats();
  snapshot.registry_lookups += stored.lookups;
  snapshot.registry_hits += stored.hits;
  snapshot.fits_started += stored.fits_started;
  snapshot.fits_completed += stored.fits_completed;
  snapshot.fit_failures += stored.fit_failures;
  snapshot.singleflight_waits += stored.singleflight_waits;
  snapshot.in_flight_fits += stored.in_flight_fits;
  snapshot.files_loaded += stored.files_loaded;
  snapshot.apps_loaded += stored.apps;
  snapshot.hot_swaps += stored.hot_swaps;
}

}  // namespace

ShardedServer::ShardedServer(ShardedServerOptions options,
                             RegistryFactory factory)
    : options_(options) {
  exareq::require(options_.shards >= 1, "ShardedServer: shards must be >= 1");
  exareq::require(options_.queue_capacity >= 1,
                  "ShardedServer: queue capacity must be >= 1");
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    shard->registry =
        factory ? factory() : std::make_unique<ModelRegistry>();
    exareq::require(shard->registry != nullptr,
                    "ShardedServer: registry factory returned null");
    shard->cache = std::make_unique<ShardedLruCache>(options_.cache_capacity,
                                                     options_.cache_shards);
    shard->engine = std::make_unique<QueryEngine>(
        *shard->registry,
        options_.cache_capacity > 0 ? shard->cache.get() : nullptr);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_loop(i); });
  }
}

ShardedServer::~ShardedServer() { stop(); }

std::size_t ShardedServer::shard_of(std::string_view app,
                                    std::size_t shard_count) {
  // FNV-1a over the lower-cased name, matching the registry's
  // case-insensitive keys so "LULESH" and "lulesh" land on one shard.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : app) {
    hash ^= static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(c)));
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash % shard_count);
}

std::size_t ShardedServer::shard_of(std::string_view app) const {
  return shard_of(app, shards_.size());
}

ModelRegistry& ShardedServer::registry(std::size_t shard) {
  exareq::require(shard < shards_.size(),
                  "ShardedServer: shard index out of range");
  return *shards_[shard]->registry;
}

void ShardedServer::set_online_hooks(std::size_t shard, OnlineHooks hooks) {
  exareq::require(shard < shards_.size(),
                  "ShardedServer: shard index out of range");
  shards_[shard]->online = std::move(hooks);
}

void ShardedServer::insert(codesign::AppRequirements models) {
  exareq::require(!models.name.empty(),
                  "ShardedServer: bundle has no name to route by");
  registry(shard_of(models.name)).insert(std::move(models));
}

std::string ShardedServer::load_file(const std::string& path) {
  codesign::AppRequirements models = read_model_file(path);
  const std::size_t owner = shard_of(models.name);
  return registry(owner).load_bundle(std::move(models));
}

std::vector<std::string> ShardedServer::submit_batch(
    const std::vector<Request>& requests) {
  std::vector<std::string> responses(requests.size());
  if (requests.empty()) return responses;
  obs::ScopedSpan span("serve_batch", "serve");

  std::shared_lock<std::shared_mutex> lock(lifecycle_);
  if (stopping_.load(std::memory_order_acquire)) {
    front_metrics_.requests.fetch_add(requests.size(),
                                      std::memory_order_relaxed);
    front_metrics_.responses_error.fetch_add(requests.size(),
                                             std::memory_order_relaxed);
    const std::string line =
        error_response("shutdown", "server is no longer accepting requests");
    std::fill(responses.begin(), responses.end(), line);
    return responses;
  }

  // Status requests are answered here, at the front end, because only it
  // sees the cross-shard aggregate; each one waits for the segment above it
  // so its counters include those requests.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind != RequestKind::kStatus) continue;
    dispatch(requests, begin, i, responses);
    front_metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    front_metrics_.responses_ok.fetch_add(1, std::memory_order_relaxed);
    responses[i] = ok_response("status " + front_status_line());
    begin = i + 1;
  }
  dispatch(requests, begin, requests.size(), responses);
  return responses;
}

void ShardedServer::dispatch(const std::vector<Request>& requests,
                             std::size_t begin, std::size_t end,
                             std::vector<std::string>& responses) {
  if (begin == end) return;
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t i = begin; i < end; ++i) {
    buckets[shard_of(requests[i].app)].push_back(i);
  }

  struct Pending {
    std::future<std::string> reply;
    const std::vector<std::size_t>* indices;
  };
  std::vector<Pending> pending;
  const std::int64_t enqueue_ns = steady_now_ns();
  for (std::size_t shard = 0; shard < buckets.size(); ++shard) {
    const std::vector<std::size_t>& indices = buckets[shard];
    if (indices.empty()) continue;
    Shard& target = *shards_[shard];
    Metrics& counters = target.metrics;
    counters.requests.fetch_add(indices.size(), std::memory_order_relaxed);
    std::vector<Request> sub;
    sub.reserve(indices.size());
    for (const std::size_t index : indices) sub.push_back(requests[index]);
    Batch batch;
    batch.frame = binary::encode_request_frame(sub);
    batch.enqueue_ns = enqueue_ns;
    std::future<std::string> reply = batch.reply.get_future();
    if (!target.queue.try_push(batch)) {
      counters.sheds.fetch_add(indices.size(), std::memory_order_relaxed);
      counters.responses_error.fetch_add(indices.size(),
                                         std::memory_order_relaxed);
      const std::string line = error_response(
          "shed", "admission queue full (capacity " +
                      std::to_string(options_.queue_capacity) + ")");
      for (const std::size_t index : indices) responses[index] = line;
      continue;
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    pending.push_back(Pending{std::move(reply), &indices});
  }

  // Collect replies; the buckets execute on their shards in parallel while
  // this thread waits for the first one's reply slot.
  for (Pending& wait : pending) {
    const std::vector<std::string> lines =
        binary::decode_response_frame(wait.reply.get());
    const std::vector<std::size_t>& indices = *wait.indices;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      responses[indices[i]] =
          i < lines.size()
              ? lines[i]
              : error_response("internal", "shard reply missing a record");
    }
  }
}

std::string ShardedServer::handle(const Request& request) {
  return submit_batch({request})[0];
}

std::string ShardedServer::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    front_metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    front_metrics_.responses_error.fetch_add(1, std::memory_order_relaxed);
    return error_response("bad-request", error.what());
  }
  return handle(request);
}

void ShardedServer::shard_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const std::int64_t deadline_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.deadline)
          .count();
  while (std::optional<Batch> batch = shard.queue.pop()) {
    obs::ScopedSpan span("serve_shard_batch", "serve");
    const std::int64_t enqueue_ns = batch->enqueue_ns;

    std::vector<std::string> lines;
    try {
      const std::vector<binary::RequestView> views =
          binary::decode_request_frame(batch->frame);
      lines.reserve(views.size());
      const bool expired =
          deadline_ns > 0 && steady_now_ns() - enqueue_ns > deadline_ns;
      for (const binary::RequestView& view : views) {
        std::string line;
        if (expired) {
          shard.metrics.deadline_drops.fetch_add(1, std::memory_order_relaxed);
          line = error_response(
              "deadline", "request waited longer than " +
                              std::to_string(options_.deadline.count()) +
                              " ms for a worker");
        } else {
          line = process_one(shard, view);
        }
        shard.metrics.latency.record(
            static_cast<double>(steady_now_ns() - enqueue_ns) / 1000.0);
        if (line.rfind("ok", 0) == 0) {
          shard.metrics.responses_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          shard.metrics.responses_error.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        lines.push_back(std::move(line));
      }
    } catch (const std::exception& error) {
      // A frame the front end built should never fail to decode; answering
      // instead of rethrowing keeps the shard alive for the next batch
      // (the front end fills unanswered records with an internal error).
      lines.assign(1, error_response("internal", error.what()));
    }
    batch->reply.set_value(binary::encode_response_frame(lines));
  }
}

std::string ShardedServer::process_one(Shard& shard,
                                       const binary::RequestView& view) {
  Request request;
  try {
    request = view.materialize();
  } catch (const std::exception& error) {
    return error_response("bad-request", error.what());
  }
  if (request.kind == RequestKind::kStatus) {
    // Normally intercepted at the front end; answered shard-locally when a
    // caller routes one here directly.
    MetricsSnapshot snapshot;
    shard.metrics.merge_into(snapshot);
    return ok_response("status " + status_line(snapshot));
  }
  if (request.kind == RequestKind::kIngest) {
    if (!shard.online.ingest) {
      return error_response("bad-request",
                            "ingest is not enabled on this server");
    }
    return shard.online.ingest(request);
  }
  return shard.engine->answer(request);
}

std::string ShardedServer::front_status_line() {
  std::string line = status_line(metrics());
  line += " shards=" + std::to_string(shards_.size());
  if (const auto online = online_stats()) {
    line += " " + online_status_fields(*online);
  }
  return line;
}

std::optional<online::OnlineStats> ShardedServer::online_stats() const {
  std::optional<online::OnlineStats> total;
  for (const auto& shard : shards_) {
    if (!shard->online.stats) continue;
    if (!total) total.emplace();
    total->merge_from(shard->online.stats());
  }
  return total;
}

MetricsSnapshot ShardedServer::metrics() const {
  MetricsSnapshot total;
  front_metrics_.merge_into(total);
  LatencyHistogram merged;
  for (const auto& shard : shards_) {
    MetricsSnapshot s;
    shard->metrics.merge_into(s);
    total.requests += s.requests;
    total.responses_ok += s.responses_ok;
    total.responses_error += s.responses_error;
    total.sheds += s.sheds;
    total.deadline_drops += s.deadline_drops;
    merged.merge_from(shard->metrics.latency);
    add_store_stats(*shard->cache, *shard->registry, total);
  }
  merged.merge_from(front_metrics_.latency);
  total.p50_latency_us = merged.quantile_us(0.50);
  total.p99_latency_us = merged.quantile_us(0.99);
  total.mean_latency_us = merged.mean_us();
  return total;
}

std::vector<ShardStatus> ShardedServer::shard_statuses() const {
  std::vector<ShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStatus status;
    status.shard = i;
    status.apps = shard.registry->app_names();
    status.queue_depth = shard.queue.size();
    shard.metrics.merge_into(status.metrics);
    add_store_stats(*shard.cache, *shard.registry, status.metrics);
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::string ShardedServer::status_report() const {
  std::string report = render_status_report(metrics());

  TextTable table({"Shard", "Models", "Requests", "Cache hits", "Hit rate",
                   "Queue", "p50 [us]"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  for (const ShardStatus& status : shard_statuses()) {
    table.add_row(
        {std::to_string(status.shard), std::to_string(status.apps.size()),
         format_count(status.metrics.requests),
         format_count(status.metrics.cache_hits),
         format_fixed(100.0 * status.metrics.cache_hit_rate(), 1) + " %",
         std::to_string(status.queue_depth),
         format_compact(status.metrics.p50_latency_us)});
  }
  report += "\n" + table.render();

  TextTable models({"Model", "Shard", "Version", "Source", "Rows",
                    "MeanRelErr", "Age [s]"});
  models.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                        Align::kLeft, Align::kRight, Align::kRight,
                        Align::kRight});
  bool any_model = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const ModelInfo& info : shards_[i]->registry->model_infos()) {
      any_model = true;
      models.add_row({info.name, std::to_string(i),
                      std::to_string(info.version),
                      online::version_source_name(info.source),
                      std::to_string(info.rows),
                      std::isnan(info.mean_abs_relative_error)
                          ? std::string("-")
                          : format_compact(info.mean_abs_relative_error),
                      format_fixed(info.age_seconds, 1)});
    }
  }
  if (any_model) report += "\n" + models.render();
  if (const auto online = online_stats()) {
    report += "\n" + render_online_section(*online);
  }
  return report;
}

void ShardedServer::stop() {
  stopping_.store(true, std::memory_order_release);
  std::unique_lock<std::shared_mutex> lock(lifecycle_);
  if (joined_) return;
  joined_ = true;
  // Close after every in-flight batch (shared holders) has finished; a
  // shard answers everything queued before the close, then returns.
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  publish_metrics();
}

void ShardedServer::publish_metrics() {
  const MetricsSnapshot snapshot = metrics();
  auto& registry = obs::MetricRegistry::instance();
  registry.counter("serve.shard.requests").add(snapshot.requests);
  registry.counter("serve.shard.batches")
      .add(batches_.load(std::memory_order_relaxed));
  registry.counter("serve.shard.errors").add(snapshot.responses_error);
  registry.counter("serve.shard.sheds").add(snapshot.sheds);
  registry.counter("serve.shard.deadline_drops").add(snapshot.deadline_drops);
  registry.counter("serve.shard.cache_hits").add(snapshot.cache_hits);
  registry.gauge("serve.shard.count").set(static_cast<double>(shards_.size()));
  auto& histogram = registry.histogram("serve.shard.latency_us");
  for (const auto& shard : shards_) {
    histogram.merge_from(shard->metrics.latency);
  }
}

}  // namespace exareq::serve
