// The campaign workload: one full pass over the nine apps on the default
// 5x5 grid, run_campaign -> model_requirements -> to_requirements ->
// upgrades A/B/C -> paper and accelerator straw-men, the way `exareq`
// runs it, with campaign and fit threads = min(nproc, 4).
//
// The traced run repeats the pass serially through the same public
// functions one layer at a time (measure_app per grid point, the locality
// trace per problem size, model, co-design), in the task order
// run_campaign uses serially; the CSV digest check proves that layered pass
// computes the same campaign.
#include <algorithm>
#include <memory>
#include <vector>

#include "instr/process.hpp"
#include "memtrace/locality.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "probes.hpp"
#include "simmpi/runtime.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = exareq;
namespace pl = exareq::pipeline;

namespace {

/// The references every pass is checked against: fit terms, and the
/// committed CSVs (digest-verified) each fresh campaign must reproduce.
struct Setup {
  Reference reference;
  std::vector<const ex::apps::Application*> apps;
  std::vector<std::string> committed_csv;  ///< per app, registry order
  pl::CampaignConfig config;
};

Setup set_up(const Options& options) {
  Setup setup{load_reference(options.data_dir), all_apps(), {}, {}};
  for (const ex::apps::Application* app : setup.apps) {
    setup.committed_csv.push_back(
        load_committed_csv(options.data_dir, app->name(), setup.reference));
  }
  setup.config.threads = options.threads;
  return setup;
}

struct AppOutput {
  pl::CampaignData data;
  pl::RequirementModels models;
  CodesignOutcome codesign;
};

struct PassCheck {
  const Setup& setup;
  std::vector<std::string> codesign_first;  ///< per app, first pass
  std::uint64_t apps = 0;
  std::uint64_t failed = 0;
  std::size_t fits_checked = 0;

  void check(std::size_t index, const AppOutput& out, Result& result) {
    check_csv(out.data, setup.committed_csv[index], result);
    fits_checked += check_fits(out.models, setup.reference, result);
    if (codesign_first.size() <= index) codesign_first.resize(index + 1);
    if (codesign_first[index].empty()) {
      codesign_first[index] = out.codesign.rendering;
    } else if (codesign_first[index] != out.codesign.rendering) {
      result.mismatch("codesign " + out.data.app_name + ": outcome changed between passes");
    }
  }
};

/// One pass as a user runs it. Returns the wall time; `campaign_s` gets the
/// summed run_campaign time. A failing app is counted and skipped.
double user_pass(const Setup& setup, const Options& options, Rng& rng, PassCheck& check,
                 Result& result, double* campaign_s = nullptr) {
  std::vector<std::size_t> order(setup.apps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  std::vector<std::unique_ptr<AppOutput>> outputs(order.size());
  std::vector<std::string> errors(order.size());
  double campaign = 0.0;
  const auto start = Clock::now();
  for (const std::size_t i : order) {
    try {
      auto out = std::make_unique<AppOutput>();
      const auto t0 = Clock::now();
      out->data = pl::run_campaign(*setup.apps[i], setup.config);
      campaign += seconds_since(t0);
      out->models = pl::model_requirements(out->data, generator_options(options.threads));
      out->codesign = run_codesign(pl::to_requirements(out->models));
      outputs[i] = std::move(out);
    } catch (const std::exception& error) {
      errors[i] = error.what();
    }
  }
  const double wall = seconds_since(start);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    ++check.apps;
    if (outputs[i]) {
      check.check(i, *outputs[i], result);
    } else {
      ++check.failed;
      result.mismatch("campaign " + setup.apps[i]->name() + " failed: " + errors[i]);
    }
  }
  if (campaign_s != nullptr) *campaign_s = campaign;
  return wall;
}

struct LayeredTotals {
  double measure_s = 0.0;
  double measure_p64_s = 0.0;
  double memtrace_s = 0.0;
  std::uint64_t accesses = 0;
  std::size_t evaluations = 0;
  ex::model::EngineStats engine;
};

/// The serial pass, one public call per span.
double layered_pass(const Setup& setup, SpanTrace& trace, PassCheck& check, Result& result,
                    LayeredTotals& totals) {
  pl::LocalityOptions no_locality = setup.config.locality;
  no_locality.enabled = false;
  const auto& ps = setup.config.process_counts;
  const auto& ns = setup.config.problem_sizes;
  const int p_max = *std::max_element(ps.begin(), ps.end());
  std::vector<AppOutput> outputs(setup.apps.size());
  const auto start = Clock::now();
  {
    SpanTrace::Scope root(trace, "pipeline");
    for (std::size_t a = 0; a < setup.apps.size(); ++a) {
      const ex::apps::Application& app = *setup.apps[a];
      AppOutput& out = outputs[a];
      out.data.app_name = app.name();
      out.data.measurements.resize(ps.size() * ns.size());
      for (std::size_t ni = 0; ni < ns.size(); ++ni) {
        for (std::size_t pi = 0; pi < ps.size(); ++pi) {
          const auto t0 = Clock::now();
          {
            SpanTrace::Scope span(trace, "measure");
            out.data.measurements[ni * ps.size() + pi] =
                pl::measure_app(app, ps[pi], ns[ni], no_locality);
          }
          const double seconds = seconds_since(t0);
          totals.measure_s += seconds;
          if (ps[pi] == p_max) totals.measure_p64_s += seconds;
        }
        const auto t0 = Clock::now();
        double stack_distance = 0.0;
        {
          SpanTrace::Scope span(trace, "memtrace");
          ex::memtrace::LocalityAnalyzer analyzer(setup.config.locality.config);
          app.trace_locality(ns[ni], analyzer);
          stack_distance =
              analyzer.finish(out.data.measurements[ni * ps.size()].loads_stores)
                  .weighted_median_stack_distance;
          totals.accesses += analyzer.recorded();
        }
        totals.memtrace_s += seconds_since(t0);
        for (std::size_t pi = 0; pi < ps.size(); ++pi) {
          out.data.measurements[ni * ps.size() + pi].stack_distance = stack_distance;
        }
      }
      {
        SpanTrace::Scope span(trace, "model.clean");
        out.models = pl::model_requirements(out.data, generator_options(1));
      }
      totals.engine += out.models.engine_stats();
      SpanTrace::Scope span(trace, "codesign");
      out.codesign = run_codesign(pl::to_requirements(out.models));
      totals.evaluations += out.codesign.evaluations;
    }
  }
  const double wall = seconds_since(start);
  for (std::size_t a = 0; a < outputs.size(); ++a) check.check(a, outputs[a], result);
  return wall;
}

/// Messages and bytes of every grid point's simmpi job (counted apart from
/// the timed passes: measure_app keeps its RunResult to itself).
void count_messages(const Setup& setup, std::uint64_t& messages, std::uint64_t& bytes) {
  for (const ex::apps::Application* app : setup.apps) {
    for (const std::int64_t n : setup.config.problem_sizes) {
      for (const int p : setup.config.process_counts) {
        std::vector<std::unique_ptr<ex::instr::ProcessInstrumentation>> contexts;
        for (int r = 0; r < p; ++r) {
          contexts.push_back(std::make_unique<ex::instr::ProcessInstrumentation>());
        }
        const auto run = ex::simmpi::run(p, [&](ex::simmpi::Communicator& comm) {
          app->run_rank(comm, *contexts[static_cast<std::size_t>(comm.rank())], n);
        });
        for (const ex::simmpi::CommStats& stats : run.stats) {
          messages += stats.messages_sent;
          bytes += stats.bytes_sent;
        }
      }
    }
  }
}

}  // namespace

void set_up_campaign_program(const Options& /*options*/, const Ready& ready) {
  // A pass needs only the app registry, so the campaign's set-up time is
  // the process start.
  all_apps();
  ready();
}

void run_campaign_workload(const Options& options, Result& result) {
  const Setup setup = set_up(options);
  PassCheck check{setup, {}};
  Rng rng(options.seed);

  if (options.trace == 0) {
    report_setup(options, result);
    user_pass(setup, options, rng, check, result);  // warm-up
    std::vector<double> passes;
    const auto start = Clock::now();
    while (passes.size() < 3 || seconds_since(start) < options.seconds) {
      passes.push_back(user_pass(setup, options, rng, check, result));
    }
    const Quartiles pass = quartiles(passes);
    result.metric("pass_s", pass.q2, "s",
                  {{"q1", pass.q1}, {"q3", pass.q3}, {"n", static_cast<double>(passes.size())}});
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.info("warmups", 1);
    result.info("repeats", static_cast<double>(passes.size()));
  } else {
    run_probes(options, result);
    double campaign_s = 0.0;
    user_pass(setup, options, rng, check, result, &campaign_s);
    LayeredTotals untraced_totals;
    SpanTrace off(false);
    const double untraced = layered_pass(setup, off, check, result, untraced_totals);
    LayeredTotals totals;
    SpanTrace on(true);
    const double traced = layered_pass(setup, on, check, result, totals);
    report_self_times(on, traced, traced / untraced - 1.0, result);
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    count_messages(setup, messages, bytes);
    result.metric("measure.p64_share", totals.measure_p64_s / totals.measure_s, "ratio");
    result.metric("measure.messages", static_cast<double>(messages), "count");
    result.metric("measure.bytes", static_cast<double>(bytes), "B");
    result.metric("measure.us_per_message", 1e6 * totals.measure_s / static_cast<double>(messages), "us");
    result.metric("memtrace.accesses", static_cast<double>(totals.accesses), "count");
    result.metric("memtrace.ns_per_access",
                  1e9 * totals.memtrace_s / static_cast<double>(totals.accesses), "ns");
    report_engine_stats("model.clean", totals.engine, result);
    result.metric("codesign.evaluations", static_cast<double>(totals.evaluations), "count");
    result.metric("pipeline.campaign_speedup",
                  (untraced_totals.measure_s + untraced_totals.memtrace_s) / campaign_s, "ratio",
                  {{"run_campaign_s", campaign_s}});
    result.info("warmups", 1);  // the parallel reference pass
    result.info("repeats", 1);
  }
  result.info("fits_checked", static_cast<double>(check.fits_checked));
  result.info("fail_frac", check.apps ? static_cast<double>(check.failed) / static_cast<double>(check.apps) : 0.0);
  result.attempted += check.apps;
  result.failed += check.failed;
}

}  // namespace perfbench
