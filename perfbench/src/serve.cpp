// The serve workload: the production tier (ShardedServer + FrontEnd over a
// Unix socket) with the nine apps' committed bundles preloaded and one
// OnlineService per shard.
//
// Each stage of a run gets a freshly set-up stack, so stages never inherit
// each other's cache contents or online datasets:
//   * closed-loop passes: a fixed list of reads answered as fast as the
//     connections allow (one request in flight per connection); pass_s is
//     the wall time of one list, the tier's service time end to end;
//   * open-loop phases at three fixed arrival rates (Poisson, seeded): each
//     request is timed from its scheduled send, so a stall also charges the
//     requests queued behind it; about 1% are ingest batches for two apps
//     on different shards, so online refits run beside the reads.
// Total cache capacity is fixed whatever the shard count, and the key space
// is several times larger than it.
#include "serve.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "data.hpp"
#include "probes.hpp"
#include "online/service.hpp"
#include "serve/binary_protocol.hpp"
#include "serve/frontend.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace ex = exareq;
namespace sv = exareq::serve;

namespace {

// Fixed on every commit so that figures stay comparable. Set from sweeps
// of open-loop rates on a 4-vCPU x86 VM (T = 4): the backlog stayed bounded
// at 15000 requests/s in every sweep and run, at 20000-25000/s in most
// (the knee moves with host noise and online-refit load), and ran away
// from 30000/s on (drain 0.4-6 s), so the rates sit well below the knee,
// below its onset and far above it. The p99 limit is twice the worst p99
// seen below the knee (45 ms; rare stalls behind online refits), so that
// goodput tracks the backlog, not those stalls.
constexpr double kRates[] = {5000.0, 15000.0, 40000.0};  // requests per second
constexpr std::size_t kMiddleRate = 1;
constexpr double kP99LimitUs = 100000.0;     // goodput latency limit
constexpr double kBacklogDrainS = 0.1;       // longer drain = growing backlog
constexpr double kIngestShare = 0.01;
// One default server's cache (ServerOptions::cache_capacity), split over
// the shards, so adding shards never adds cache.
const std::size_t kTotalCacheEntries = sv::ServerOptions{}.cache_capacity;
// Each ingest carries one new measurement (one grid point); the online
// default refits after 25 rows, one 5x5 grid.
constexpr std::size_t kRowsPerIngest = 1;
constexpr std::size_t kPassRequests = 20000;
constexpr std::size_t kPassBatch = 32;       // requests per closed-loop frame
constexpr std::size_t kSampleEvery = 61;     // served responses re-checked
constexpr double kWarmupShare = 0.15;        // of each phase, not measured
constexpr int kDrainTimeoutMs = 20000;   // above the knee the drain takes seconds

// ---- request mix ------------------------------------------------------------

// The shares of bench/bench_serve_throughput's mix: 80% evals, 10% footprint
// inversions, 10% co-design scenarios (here upgrade sweeps plus the nine
// straw-man studies, which that mix leaves out).
constexpr double kEvalShare = 0.80;
constexpr double kInvertShare = 0.10;
constexpr double kScenarioShare = 0.10;
// Key popularity: Zipf-like with the exponent measured for web request
// streams (Breslau et al., "Web Caching and Zipf-like Distributions",
// INFOCOM 1999: 0.64 to 0.83). No trace of this service exists to fit it.
constexpr double kZipfExponent = 0.8;

std::vector<double> geometric(double first, std::size_t count) {
  std::vector<double> values;
  for (std::size_t i = 0; i < count; ++i) values.push_back(first * std::ldexp(1.0, static_cast<int>(i)));
  return values;
}

}  // namespace

RequestMix::RequestMix(const std::vector<std::string>& apps, sv::QueryEngine& oracle,
                       std::uint64_t seed) {
  Kind eval{kEvalShare, {}};
  Kind invert{kInvertShare, {}};
  Kind scenario{kScenarioShare, {}};  // upgrade sweeps and straw-man studies
  for (const std::string& app : apps) {
    for (const std::string& metric : sv::metric_names()) {
      for (const double p : geometric(16.0, 16)) {
        for (const double n : geometric(64.0, 16)) {
          sv::Request r;
          r.kind = sv::RequestKind::kEval;
          r.app = app;
          r.metric = metric;
          r.p = p;
          r.n = n;
          eval.keys.push_back(r);
        }
      }
    }
    for (const double processes : geometric(1024.0, 16)) {
      for (const double memory : geometric(268435456.0, 8)) {
        for (Kind* kind : {&invert, &scenario}) {
          sv::Request r;
          r.kind = kind == &invert ? sv::RequestKind::kInvert : sv::RequestKind::kUpgrade;
          r.app = app;
          r.processes = processes;
          r.memory_per_process = memory;
          if (oracle.answer(r).rfind("ok ", 0) == 0) kind->keys.push_back(r);
        }
      }
    }
    sv::Request r;
    r.kind = sv::RequestKind::kStrawman;
    r.app = app;
    scenario.keys.push_back(r);
  }
  // Popularity ranks go round-robin over the apps (in a seeded order), each
  // app's keys in a seeded order, so every seed gives each app the same
  // share of every popularity band: the seed picks which keys are hot, not
  // which app's costs dominate.
  Rng rng(seed ^ 0x6b65797370616365ULL);
  for (Kind* kind : {&eval, &invert, &scenario}) {
    std::vector<std::vector<sv::Request>> by_app(apps.size());
    for (sv::Request& key : kind->keys) {
      const auto app = std::find(apps.begin(), apps.end(), key.app) - apps.begin();
      by_app[static_cast<std::size_t>(app)].push_back(std::move(key));
    }
    shuffle(by_app, rng);
    std::size_t longest = 0;
    for (auto& keys : by_app) {
      shuffle(keys, rng);
      longest = std::max(longest, keys.size());
    }
    kind->keys.clear();
    for (std::size_t i = 0; i < longest; ++i) {
      for (const auto& keys : by_app) {
        if (i < keys.size()) kind->keys.push_back(keys[i]);
      }
    }
    zipf_.emplace_back(kind->keys.size(), kZipfExponent);
    kinds_.push_back(std::move(*kind));
  }
}

const sv::Request& RequestMix::next(Rng& rng) const {
  double u = rng.uniform();
  std::size_t k = 0;
  while (k + 1 < kinds_.size() && u >= kinds_[k].share) u -= kinds_[k++].share;
  return kinds_[k].keys[zipf_[k].sample(rng)];
}

std::size_t RequestMix::key_count() const {
  std::size_t count = 0;
  for (const Kind& kind : kinds_) count += kind.keys.size();
  return count;
}

namespace {

// ---- client side of the socket ---------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + why);
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads whatever is available (after poll said readable) into frames.
std::vector<std::string> read_frames(int fd, sv::binary::BinaryFrameDecoder& decoder) {
  char buffer[65536];
  ssize_t n = 0;
  do {
    n = ::recv(fd, buffer, sizeof(buffer), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) throw std::runtime_error("connection closed by the server");
  return decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
}

/// The single response line of a batch-of-one frame.
std::string only_line(const std::string& frame) {
  std::vector<std::string> lines = sv::binary::decode_response_frame(frame);
  if (lines.size() != 1) throw std::runtime_error("response frame without exactly one line");
  return std::move(lines[0]);
}

bool is_ok(const std::string& response) { return response.rfind("ok ", 0) == 0; }

// ---- the stack under test ---------------------------------------------------

struct Inputs {
  std::vector<std::string> apps;
  std::unique_ptr<sv::ModelRegistry> oracle_registry;
  std::unique_ptr<sv::QueryEngine> oracle;
  std::unique_ptr<RequestMix> mix;
  std::string ingest_apps[2];
  std::vector<std::string> ingest_payloads[2];  ///< kRowsPerIngest rows each
};

Inputs load_inputs(const Options& options) {
  Inputs in;
  in.oracle_registry = std::make_unique<sv::ModelRegistry>();
  for (const ex::apps::Application* app : all_apps()) {
    in.apps.push_back(app->name());
    in.oracle_registry->load_file(options.data_dir + "/" + app->name() + ".models");
  }
  in.oracle = std::make_unique<sv::QueryEngine>(*in.oracle_registry, nullptr);
  in.mix = std::make_unique<RequestMix>(in.apps, *in.oracle, options.seed);

  // Two ingest apps owned by different shards (when there are two), so each
  // shard's online service refits exactly one of them.
  const std::size_t shards = options.threads;
  in.ingest_apps[0] = in.apps[0];
  in.ingest_apps[1] = in.apps[1];
  for (const std::string& app : in.apps) {
    if (sv::ShardedServer::shard_of(app, shards) != sv::ShardedServer::shard_of(in.apps[0], shards)) {
      in.ingest_apps[1] = app;
      break;
    }
  }
  for (int i = 0; i < 2; ++i) {
    std::istringstream csv(read_file(options.data_dir + "/" + in.ingest_apps[i] + ".csv"));
    std::string header;
    std::getline(csv, header);
    std::vector<std::string> rows;
    for (std::string row; std::getline(csv, row);) {
      if (!row.empty()) rows.push_back(row);
    }
    for (std::size_t first = 0; first + kRowsPerIngest <= rows.size(); first += kRowsPerIngest) {
      std::string payload = header;
      for (std::size_t r = first; r < first + kRowsPerIngest; ++r) payload += ';' + rows[r];
      in.ingest_payloads[i].push_back(payload);
    }
  }
  return in;
}

struct Stack {
  std::unique_ptr<sv::ShardedServer> server;
  std::vector<std::unique_ptr<ex::online::OnlineService>> online;
  std::unique_ptr<sv::FrontEnd> front;
  std::vector<int> fds;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (const int fd : fds) ::close(fd);
    if (front) front->stop();
    // Shards call into the online hooks, so they stop before the services.
    if (server) server->stop();
    for (auto& service : online) service->stop();
  }
};

std::unique_ptr<Stack> set_up(const Options& options, std::size_t connections, int ordinal) {
  auto stack = std::make_unique<Stack>();
  sv::ShardedServerOptions server_options;
  server_options.shards = options.threads;
  server_options.cache_capacity = kTotalCacheEntries / options.threads;
  stack->server = std::make_unique<sv::ShardedServer>(server_options);
  for (const ex::apps::Application* app : all_apps()) {
    stack->server->load_file(options.data_dir + "/" + app->name() + ".models");
  }
  const ex::online::OnlineServiceOptions online_options;
  for (std::size_t shard = 0; shard < stack->server->shard_count(); ++shard) {
    stack->online.push_back(std::make_unique<ex::online::OnlineService>(
        stack->server->registry(shard), online_options));
    stack->server->set_online_hooks(shard, stack->online.back()->hooks());
  }
  sv::FrontEndOptions front_options;
  front_options.unix_path = options.scratch_dir + "/serve-" + std::to_string(::getpid()) + "-" +
                            std::to_string(ordinal) + ".sock";
  stack->front = std::make_unique<sv::FrontEnd>(*stack->server, front_options);
  stack->front->start();
  for (std::size_t c = 0; c < connections; ++c) {
    stack->fds.push_back(connect_unix(front_options.unix_path));
  }
  return stack;
}

// ---- closed loop ------------------------------------------------------------

struct Sample {
  sv::Request request;
  std::string response;
};

/// Answers `requests` in batch frames of kPassBatch, one frame in flight per
/// connection; returns the wall time. Every response must be ok; every
/// kSampleEvery-th goes to `samples` unless that is null.
double closed_loop_pass(Stack& stack, const std::vector<sv::Request>& requests,
                        std::vector<Sample>* samples, std::uint64_t& errors) {
  const std::size_t connections = stack.fds.size();
  std::vector<sv::binary::BinaryFrameDecoder> decoders(connections);
  std::vector<std::size_t> in_flight(connections, 0);
  std::vector<pollfd> fds;
  for (const int fd : stack.fds) fds.push_back({fd, POLLIN, 0});
  std::size_t next = 0;
  std::size_t done = 0;
  const auto send_batch = [&](std::size_t c) {
    const std::size_t end = std::min(requests.size(), next + kPassBatch);
    in_flight[c] = next;
    send_all(stack.fds[c], sv::binary::encode_request_frame(
                               std::vector<sv::Request>(requests.begin() + static_cast<long>(next),
                                                        requests.begin() + static_cast<long>(end))));
    next = end;
  };
  const auto start = Clock::now();
  for (std::size_t c = 0; c < connections && next < requests.size(); ++c) send_batch(c);
  while (done < requests.size()) {
    const int ready = ::poll(fds.data(), fds.size(), kDrainTimeoutMs);
    if (ready <= 0) throw std::runtime_error("closed-loop pass: no response within the timeout");
    for (std::size_t c = 0; c < connections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (const std::string& frame : read_frames(stack.fds[c], decoders[c])) {
        std::vector<std::string> lines = sv::binary::decode_response_frame(frame);
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const std::size_t index = in_flight[c] + i;
          if (!is_ok(lines[i])) ++errors;
          if (samples != nullptr && index % kSampleEvery == 0) {
            samples->push_back({requests[index], std::move(lines[i])});
          }
        }
        done += lines.size();
        if (next < requests.size()) send_batch(c);
      }
    }
  }
  return seconds_since(start);
}

/// One connection, one request at a time, with spans around the client
/// codec and the socket round trip (which holds the whole server side:
/// front end, shard transport, cache, engine).
double serial_pass(Stack& stack, const std::vector<sv::Request>& requests, SpanTrace& trace,
                   std::uint64_t& errors) {
  const int fd = stack.fds.front();
  sv::binary::BinaryFrameDecoder decoder;
  pollfd pfd{fd, POLLIN, 0};
  const auto start = Clock::now();
  {
    SpanTrace::Scope root(trace, "pipeline");
    for (const sv::Request& request : requests) {
      std::string frame;
      {
        SpanTrace::Scope span(trace, "serve.codec");
        frame = sv::binary::encode_request_frame({request});
      }
      std::vector<std::string> frames;
      {
        SpanTrace::Scope span(trace, "serve.roundtrip");
        send_all(fd, frame);
        while (frames.empty()) {
          if (::poll(&pfd, 1, kDrainTimeoutMs) <= 0) throw std::runtime_error("serial pass: timeout");
          frames = read_frames(fd, decoder);
        }
      }
      SpanTrace::Scope span(trace, "serve.codec");
      if (!is_ok(only_line(frames.front()))) ++errors;
    }
  }
  return seconds_since(start);
}

// ---- open loop --------------------------------------------------------------

struct Phase {
  double rate = 0.0;
  double duration_s = 0.0;
  std::uint64_t sent = 0;       ///< measured part only
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::vector<double> latency_us;   ///< ok reads, from the scheduled send
  std::vector<double> late_us;      ///< generator lateness, every send
  double drain_s = 0.0;             ///< last scheduled send -> last response
  std::uint64_t good = 0;           ///< ok and within kP99LimitUs
  std::size_t queue_depth_max = 0;
  std::vector<double> refit_lag_s;
  sv::MetricsSnapshot server;
  std::vector<std::uint64_t> shard_requests;
  ex::online::OnlineStats online;   ///< summed over shards
  std::vector<Sample> samples;
};

struct Planned {
  std::int64_t offset_ns;
  sv::Request request;
  int ingest_app = -1;  ///< 0/1 for ingests
};

std::vector<Planned> plan_phase(const Inputs& in, double rate, double duration_s, Rng& rng) {
  std::vector<Planned> plan;
  std::size_t next_payload[2] = {0, 0};
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / rate);
    if (t >= duration_s) break;
    Planned item;
    item.offset_ns = static_cast<std::int64_t>(t * 1e9);
    if (rng.uniform() < kIngestShare) {
      const int which = static_cast<int>(rng.index(2));
      item.ingest_app = which;
      item.request.kind = sv::RequestKind::kIngest;
      item.request.app = in.ingest_apps[which];
      const auto& payloads = in.ingest_payloads[which];
      item.request.payload = payloads[next_payload[which]++ % payloads.size()];
    } else {
      item.request = in.mix->next(rng);
    }
    plan.push_back(std::move(item));
  }
  return plan;
}

/// The number after `key` ("pending=", "accepted=") in an ingest response.
std::size_t ingest_field(const std::string& response, const std::string& key) {
  const auto at = response.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(std::strtoull(response.c_str() + at + key.size(), nullptr, 10));
}

Phase open_loop_phase(Stack& stack, const Inputs& in, double rate, double duration_s,
                      Rng& rng) {
  Phase phase;
  phase.rate = rate;
  phase.duration_s = duration_s;
  const std::vector<Planned> plan = plan_phase(in, rate, duration_s, rng);
  const auto measured_from = static_cast<std::int64_t>(kWarmupShare * duration_s * 1e9);
  const std::size_t connections = stack.fds.size();
  std::vector<std::int64_t> done_ns(plan.size(), -1);
  std::vector<char> ok(plan.size(), 0);
  std::vector<double> late_us(plan.size(), 0.0);
  std::vector<std::deque<std::size_t>> fifo(connections);
  std::mutex fifo_mutex;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::string sender_error;

  const std::int64_t start_ns = now_ns() + 2'000'000;  // both threads ready
  std::thread sender([&] {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time
    try {
      for (std::size_t k = 0; k < plan.size(); ++k) {
        const std::int64_t due = start_ns + plan[k].offset_ns;
        const std::int64_t wait = due - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        late_us[k] = 1e-3 * static_cast<double>(now_ns() - due);
        const std::string frame = sv::binary::encode_request_frame({plan[k].request});
        const std::size_t c = k % connections;
        {
          std::lock_guard<std::mutex> lock(fifo_mutex);
          fifo[c].push_back(k);
        }
        send_all(stack.fds[c], frame);
        sent.fetch_add(1, std::memory_order_release);
      }
    } catch (const std::exception& error) {
      sender_error = error.what();
    }
    sender_done.store(true, std::memory_order_release);
  });
  // Joins the sender on every path out of this function; a broken
  // connection makes its next send fail, so the join ends.
  struct Joiner {
    std::thread& thread;
    ~Joiner() { thread.join(); }
  } joiner{sender};

  // Receiver: this thread. It also polls queue depths and refit progress.
  struct LagWatch {
    std::int64_t ok_ns;
    int app;
    std::uint64_t rows_needed;
  };
  std::vector<LagWatch> watches;
  const std::size_t refit_rows = ex::online::OnlineServiceOptions{}.policy.refit_rows;
  std::uint64_t rows_accepted[2] = {0, 0};
  std::vector<sv::binary::BinaryFrameDecoder> decoders(connections);
  std::vector<pollfd> fds;
  for (const int fd : stack.fds) fds.push_back({fd, POLLIN, 0});
  std::size_t received = 0;
  std::int64_t last_poll_ns = 0;
  std::int64_t drain_deadline_ns = -1;
  std::int64_t last_response_ns = start_ns;
  std::size_t sample_counter = 0;
  const auto shard_of_app = [&](int app) {
    return stack.server->shard_of(in.ingest_apps[app]);
  };
  while (true) {
    const bool all_sent = sender_done.load(std::memory_order_acquire);
    if (all_sent && received >= sent.load(std::memory_order_acquire)) break;
    if (all_sent && drain_deadline_ns < 0) drain_deadline_ns = now_ns() + kDrainTimeoutMs * 1'000'000LL;
    if (drain_deadline_ns >= 0 && now_ns() > drain_deadline_ns) break;
    if (::poll(fds.data(), fds.size(), 1) > 0) {
      for (std::size_t c = 0; c < connections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (const std::string& frame : read_frames(stack.fds[c], decoders[c])) {
          const std::int64_t t = now_ns();
          std::size_t k = 0;
          {
            std::lock_guard<std::mutex> lock(fifo_mutex);
            k = fifo[c].front();
            fifo[c].pop_front();
          }
          std::string line = only_line(frame);
          done_ns[k] = t;
          last_response_ns = t;
          ok[k] = is_ok(line) ? 1 : 0;
          ++received;
          const Planned& item = plan[k];
          if (item.ingest_app >= 0 && ok[k]) {
            rows_accepted[item.ingest_app] += ingest_field(line, "accepted=");
            if (ingest_field(line, "pending=") >= refit_rows && plan[k].offset_ns >= measured_from) {
              watches.push_back({t, item.ingest_app, rows_accepted[item.ingest_app]});
            }
          } else if (item.ingest_app < 0 && ++sample_counter % kSampleEvery == 0) {
            phase.samples.push_back({item.request, std::move(line)});
          }
        }
      }
    }
    const std::int64_t t = now_ns();
    for (auto it = watches.begin(); it != watches.end();) {
      const auto version = stack.server->registry(shard_of_app(it->app)).version_of(in.ingest_apps[it->app]);
      if (version && version->rows >= it->rows_needed) {
        phase.refit_lag_s.push_back(1e-9 * static_cast<double>(t - it->ok_ns));
        it = watches.erase(it);
      } else {
        ++it;
      }
    }
    if (t - last_poll_ns > 10'000'000) {
      last_poll_ns = t;
      for (const sv::ShardStatus& status : stack.server->shard_statuses()) {
        phase.queue_depth_max = std::max(phase.queue_depth_max, status.queue_depth);
      }
    }
  }
  if (!sender_error.empty()) throw std::runtime_error("open-loop sender: " + sender_error);

  for (std::size_t k = 0; k < plan.size(); ++k) {
    phase.late_us.push_back(late_us[k]);
    if (plan[k].offset_ns < measured_from) continue;
    ++phase.sent;
    if (done_ns[k] < 0) {
      ++phase.timeouts;
      continue;
    }
    if (!ok[k]) {
      ++phase.errors;
      continue;
    }
    if (plan[k].ingest_app >= 0) continue;
    const double us = 1e-3 * static_cast<double>(done_ns[k] - (start_ns + plan[k].offset_ns));
    phase.latency_us.push_back(us);
    if (us <= kP99LimitUs) ++phase.good;
  }
  if (!plan.empty()) {
    phase.drain_s = std::max(0.0, 1e-9 * static_cast<double>(last_response_ns -
                                                           (start_ns + plan.back().offset_ns)));
  }
  for (auto& service : stack.online) service->drain();
  phase.server = stack.server->metrics();
  for (const sv::ShardStatus& status : stack.server->shard_statuses()) {
    phase.shard_requests.push_back(status.metrics.requests);
  }
  for (auto& service : stack.online) {
    const ex::online::OnlineStats stats = service->stats();
    phase.online.rows_ingested += stats.rows_ingested;
    phase.online.refits += stats.refits;
    phase.online.refit_failures += stats.refit_failures;
    phase.online.rollbacks += stats.rollbacks;
    phase.online.batches_accepted += stats.batches_accepted;
  }
  return phase;
}

bool meets_limit(const Phase& phase) {
  return phase.errors + phase.timeouts == 0 && !phase.latency_us.empty() &&
         exact_quantile(phase.latency_us, 0.99) <= kP99LimitUs && phase.drain_s <= kBacklogDrainS;
}

/// One-shot answers by canonical key. The oracle has no cache and answers
/// deterministically, and Zipf traffic samples its hot keys again and again.
using OracleAnswers = std::unordered_map<std::string, std::string>;

void check_samples(const std::vector<Sample>& samples, const Inputs& in, OracleAnswers& answers,
                   Result& result, std::size_t& checked) {
  for (const Sample& sample : samples) {
    if (sample.request.app == in.ingest_apps[0] || sample.request.app == in.ingest_apps[1]) continue;
    ++checked;
    const std::string key = sv::canonical_key(sample.request);
    auto expected_at = answers.find(key);
    if (expected_at == answers.end()) {
      expected_at = answers.emplace(key, in.oracle->answer(sample.request)).first;
    }
    const std::string& expected = expected_at->second;
    if (expected != sample.response) {
      result.mismatch("served response differs from a one-shot QueryEngine for '" + key +
                      "': got '" + sample.response +
                      "', want '" + expected + "'");
    }
  }
}

std::vector<sv::Request> pass_requests(const Inputs& in, Rng& rng) {
  std::vector<sv::Request> requests;
  for (std::size_t i = 0; i < kPassRequests; ++i) requests.push_back(in.mix->next(rng));
  return requests;
}

void report_phase_layers(const Phase& phase, Result& result, const std::string& suffix) {
  const auto& s = phase.server;
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  result.metric("serve.cache_hit_rate" + suffix,
                lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0, "ratio");
  result.metric("serve.cache_evictions" + suffix, static_cast<double>(s.cache_evictions), "count");
  result.metric("serve.queue_depth_max" + suffix, static_cast<double>(phase.queue_depth_max), "count");
  double total = 0.0;
  double largest = 0.0;
  for (const std::uint64_t n : phase.shard_requests) {
    total += static_cast<double>(n);
    largest = std::max(largest, static_cast<double>(n));
  }
  const double mean = phase.shard_requests.empty() ? 0.0 : total / static_cast<double>(phase.shard_requests.size());
  result.metric("serve.shard_skew" + suffix, mean > 0 ? largest / mean : 0.0, "ratio");
  result.metric("serve.sheds" + suffix, static_cast<double>(s.sheds), "count");
  result.metric("serve.deadline_drops" + suffix, static_cast<double>(s.deadline_drops), "count");
  result.metric("online.rows_ingested" + suffix, static_cast<double>(phase.online.rows_ingested), "count");
  result.metric("online.refits" + suffix, static_cast<double>(phase.online.refits), "count");
  result.metric("online.refit_failures" + suffix, static_cast<double>(phase.online.refit_failures), "count");
  result.metric("online.rollbacks" + suffix, static_cast<double>(phase.online.rollbacks), "count");
  result.metric("online.batches_per_refit" + suffix,
                phase.online.refits > 0 ? static_cast<double>(phase.online.batches_accepted) /
                                              static_cast<double>(phase.online.refits)
                                        : 0.0,
                "ratio");
  result.metric("gen.late_us_p99" + suffix, exact_quantile(phase.late_us, 0.99), "us",
                {{"n", static_cast<double>(phase.late_us.size())}});
}

}  // namespace

void set_up_serve_program(const Options& options, const Ready& ready) {
  // The stack a pass runs on: shards with the nine bundles loaded, online
  // services, the front end and the client connections.
  const auto stack = set_up(options, options.threads, 0);
  ready();
}

void run_serve_workload(const Options& options, Result& result) {
  const std::size_t connections = options.threads;
  // The benchmark's own inputs (oracle, key space, ingest payloads), then a
  // fresh stack for every stage.
  const Inputs in = load_inputs(options);
  OracleAnswers answers;
  int ordinal = 0;
  const auto fresh_stack = [&] { return set_up(options, connections, ordinal++); };
  Rng rng(options.seed);
  std::size_t checked = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  result.info("serve.keys", static_cast<double>(in.mix->key_count()));
  result.info("serve.cache_entries_total", static_cast<double>(kTotalCacheEntries));
  result.info("serve.shards", static_cast<double>(options.threads));
  result.info("serve.connections", static_cast<double>(connections));
  result.info_text("serve.ingest_apps", in.ingest_apps[0] + "," + in.ingest_apps[1]);

  if (options.trace == 0) {
    report_setup(options, result);
    // Closed-loop passes run in four blocks of a tenth of the run each,
    // before, between and after the open-loop phases (a fifth each), so a
    // burst of machine noise cannot cover most of them. The pass stack
    // stays up, idle, while the phases run on their own fresh stacks.
    auto pass_stack = fresh_stack();
    std::vector<double> passes;
    std::vector<Sample> samples;
    std::uint64_t errors = 0;
    // Warm-up: the first second or so of passes runs slower (caches and
    // buffers filling), so the same share of the pass time (four tenths of
    // the run) as of each phase goes unmeasured.
    std::size_t warmups = 0;
    const auto warmup_start = Clock::now();
    do {
      closed_loop_pass(*pass_stack, pass_requests(in, rng), warmups == 0 ? &samples : nullptr, errors);
      ++warmups;
    } while (seconds_since(warmup_start) < kWarmupShare * 0.4 * options.seconds);
    const auto pass_block = [&] {
      // The first pass of a block is sampled for the correctness check.
      const auto start = Clock::now();
      bool first = true;
      do {
        passes.push_back(closed_loop_pass(*pass_stack, pass_requests(in, rng),
                                          first ? &samples : nullptr, errors));
        first = false;
      } while (seconds_since(start) < 0.1 * options.seconds);
    };
    std::vector<Phase> phases;
    for (const double rate : kRates) {
      pass_block();
      auto stack = fresh_stack();
      phases.push_back(open_loop_phase(*stack, in, rate, 0.2 * options.seconds, rng));
      const Phase& phase = phases.back();
      attempted += phase.sent;
      failed += phase.errors + phase.timeouts + phase.server.sheds + phase.server.deadline_drops;
      check_samples(phase.samples, in, answers, result, checked);
    }
    pass_block();
    result.info("warmups", static_cast<double>(warmups));
    result.info("repeats", static_cast<double>(passes.size()));
    attempted += kPassRequests * (passes.size() + warmups);
    failed += errors;
    check_samples(samples, in, answers, result, checked);
    const Quartiles pass = quartiles(passes);
    result.metric("pass_s", pass.q2, "s",
                  {{"q1", pass.q1}, {"q3", pass.q3}, {"n", static_cast<double>(passes.size())},
                   {"requests", static_cast<double>(kPassRequests)}});
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    const Phase& middle = phases[kMiddleRate];
    result.metric("serve_p50_us", exact_quantile(middle.latency_us, 0.50), "us",
                  {{"n", static_cast<double>(middle.latency_us.size())}, {"rate", middle.rate}});
    result.metric("serve_p99_us", exact_quantile(middle.latency_us, 0.99), "us",
                  {{"n", static_cast<double>(middle.latency_us.size())}, {"rate", middle.rate}});
    double goodput = 0.0;
    double goodput_rate = 0.0;
    for (const Phase& phase : phases) {
      if (!meets_limit(phase)) continue;
      goodput = static_cast<double>(phase.good) / ((1.0 - kWarmupShare) * phase.duration_s);
      goodput_rate = phase.rate;
    }
    result.metric("serve_goodput_qps", goodput, "1/s",
                  {{"rate", goodput_rate}, {"p99_limit_us", kP99LimitUs}});
    result.metric("refit_lag_s", median(middle.refit_lag_s), "s",
                  {{"n", static_cast<double>(middle.refit_lag_s.size())}});
    for (const Phase& phase : phases) {
      const std::string at = "@" + std::to_string(static_cast<int>(phase.rate));
      result.info("serve_p50_us" + at, exact_quantile(phase.latency_us, 0.50));
      result.info("serve_p99_us" + at, exact_quantile(phase.latency_us, 0.99));
      result.info("serve_samples" + at, static_cast<double>(phase.latency_us.size()));
      result.info("serve_drain_s" + at, phase.drain_s);
      result.info("fail_frac" + at,
                  phase.sent ? static_cast<double>(phase.errors + phase.timeouts + phase.server.sheds +
                                                   phase.server.deadline_drops) /
                                   static_cast<double>(phase.sent)
                             : 0.0);
      result.info("refit_lag_s" + at, median(phase.refit_lag_s));
    }
    report_phase_layers(middle, result, "");
  } else {
    run_probes(options, result);
    auto stack = fresh_stack();
    // Serial closed loop over one request list: a warm-up pass, then
    // untraced and traced passes alternately; the spans of the last traced
    // pass give the self times, the medians give the tracing overhead.
    const std::vector<sv::Request> requests = pass_requests(in, rng);
    std::uint64_t errors = 0;
    SpanTrace off(false);
    serial_pass(*stack, requests, off, errors);
    std::vector<double> untraced;
    std::vector<double> traced;
    std::unique_ptr<SpanTrace> on;
    for (int rep = 0; rep < 3; ++rep) {
      untraced.push_back(serial_pass(*stack, requests, off, errors));
      on = std::make_unique<SpanTrace>(true);
      traced.push_back(serial_pass(*stack, requests, *on, errors));
    }
    attempted += 7 * requests.size();
    failed += errors;
    report_self_times(*on, traced.back(), median(traced) / median(untraced) - 1.0, result);
    result.info("warmups", 1);
    result.info("repeats", static_cast<double>(traced.size()));
    stack.reset();
    auto phase_stack = fresh_stack();
    const Phase phase = open_loop_phase(*phase_stack, in, kRates[kMiddleRate], 0.2 * options.seconds, rng);
    attempted += phase.sent;
    failed += phase.errors + phase.timeouts + phase.server.sheds + phase.server.deadline_drops;
    check_samples(phase.samples, in, answers, result, checked);
    report_phase_layers(phase, result, "");
  }
  result.info("serve.responses_checked", static_cast<double>(checked));
  result.info("fail_frac", attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  if (checked == 0) result.mismatch("serve: no served response was checked");
  result.attempted += attempted;
  result.failed += failed;
}

}  // namespace perfbench
