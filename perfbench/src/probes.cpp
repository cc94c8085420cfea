#include "probes.hpp"

#include <span>
#include <string>
#include <vector>

#include "pipeline/measure.hpp"
#include "serve.hpp"
#include "serve/binary_protocol.hpp"
#include "serve/registry.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace ex = exareq;

namespace {

constexpr int kJobs = 7;  // each probe reports the median over this many jobs

struct CollectiveProbe {
  double us_per_op = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Median per-operation time of `ops` back-to-back collectives, timed by
/// rank 0 between two barriers, plus the message and byte counts of one job,
/// which every job must repeat exactly (a mismatch names the probe).
template <typename Op>
CollectiveProbe collective(const char* name, int p, int ops, Op op, Result& result) {
  std::vector<double> per_op;
  CollectiveProbe probe;
  for (int job = 0; job < kJobs; ++job) {
    double seconds = 0.0;
    const ex::simmpi::RunResult run = ex::simmpi::run(p, [&](ex::simmpi::Communicator& comm) {
      comm.barrier();
      const auto start = Clock::now();
      for (int i = 0; i < ops; ++i) op(comm);
      comm.barrier();
      if (comm.rank() == 0) seconds = seconds_since(start);
    });
    per_op.push_back(1e6 * seconds / ops);
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    for (const ex::simmpi::CommStats& stats : run.stats) {
      messages += stats.messages_sent;
      bytes += stats.bytes_sent;
    }
    if (job == 0) {
      probe.messages = messages;
      probe.bytes = bytes;
    } else if (messages != probe.messages || bytes != probe.bytes) {
      result.mismatch(std::string("simmpi probe ") + name + ": job " + std::to_string(job) +
                      " sent " + std::to_string(messages) + " messages / " +
                      std::to_string(bytes) + " B, job 0 sent " +
                      std::to_string(probe.messages) + " / " + std::to_string(probe.bytes));
    }
  }
  probe.us_per_op = median(per_op);
  return probe;
}

}  // namespace

void run_probes(const Options& options, Result& result) {
  // simmpi: an empty 64-rank job, then 8-double collectives.
  std::vector<double> jobs;
  for (int job = 0; job < 3 * kJobs; ++job) {
    const auto start = Clock::now();
    ex::simmpi::run(64, [](ex::simmpi::Communicator&) {});
    jobs.push_back(1e6 * seconds_since(start));
  }
  const std::vector<double> eight(8, 1.0);
  const auto allreduce = [&](ex::simmpi::Communicator& comm) {
    comm.allreduce(std::span<const double>(eight), ex::simmpi::ops::Sum{});
  };
  const CollectiveProbe ar4 = collective("allreduce p4", 4, 400, allreduce, result);
  const CollectiveProbe ar64 = collective("allreduce p64", 64, 40, allreduce, result);
  const std::vector<double> blocks(64 * 8, 1.0);
  const CollectiveProbe a2a64 = collective(
      "alltoall p64", 64, 10,
      [&](ex::simmpi::Communicator& comm) { comm.alltoall(std::span<const double>(blocks)); },
      result);
  result.metric("simmpi.job_us.p64", median(jobs), "us", {{"n", static_cast<double>(jobs.size())}});
  result.metric("simmpi.allreduce_us.p4", ar4.us_per_op, "us", {{"n", kJobs}});
  result.metric("simmpi.allreduce_us.p64", ar64.us_per_op, "us", {{"n", kJobs}});
  result.metric("simmpi.alltoall_us.p64", a2a64.us_per_op, "us", {{"n", kJobs}});
  result.metric("simmpi.messages", static_cast<double>(ar4.messages + ar64.messages + a2a64.messages),
                "count");
  result.metric("simmpi.bytes", static_cast<double>(ar4.bytes + ar64.bytes + a2a64.bytes), "B");

  // App kernels and instrumentation with no peers: single-rank measurements
  // over the campaign grid's problem sizes, locality off.
  ex::pipeline::LocalityOptions no_locality;
  no_locality.enabled = false;
  std::vector<double> rank_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    for (const ex::apps::Application* app : all_apps()) {
      for (const std::int64_t n : ex::pipeline::CampaignConfig{}.problem_sizes) {
        ex::pipeline::measure_app(*app, 1, n, no_locality);
      }
    }
    rank_s.push_back(seconds_since(start));
  }
  result.metric("apps.rank_s.p1", median(rank_s), "s", {{"n", 3.0}});

  // Client-side binary codec: encode one request frame and decode one
  // response frame, per request of the serve mix (responses from a one-shot
  // engine over the committed bundles, encoded untimed).
  ex::serve::ModelRegistry registry;
  std::vector<std::string> apps;
  for (const ex::apps::Application* app : all_apps()) {
    apps.push_back(app->name());
    registry.load_file(options.data_dir + "/" + app->name() + ".models");
  }
  ex::serve::QueryEngine engine(registry, nullptr);
  const RequestMix mix(apps, engine, options.seed);
  Rng rng(options.seed);
  std::vector<ex::serve::Request> requests;
  std::vector<std::string> responses;
  for (int i = 0; i < 2000; ++i) {
    requests.push_back(mix.next(rng));
    responses.push_back(ex::serve::binary::encode_response_frame({engine.answer(requests.back())}));
  }
  std::vector<double> codec_us;
  std::size_t bytes = 0;
  for (int rep = 0; rep < kJobs; ++rep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      bytes += ex::serve::binary::encode_request_frame({requests[i]}).size();
      bytes += ex::serve::binary::decode_response_frame(responses[i]).front().size();
    }
    codec_us.push_back(1e6 * seconds_since(start) / static_cast<double>(requests.size()));
  }
  result.metric("serve.codec_us", median(codec_us), "us",
                {{"n", kJobs}, {"requests", static_cast<double>(requests.size())}});
  result.info("serve.codec_bytes", static_cast<double>(bytes));
}

}  // namespace perfbench
