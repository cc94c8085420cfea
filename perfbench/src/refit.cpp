// The refit workload: the model -> upgrade -> strawman half of a pass over
// the nine committed campaign CSVs. Each CSV is fitted twice, as measured
// and with seeded 2% multiplicative noise the benchmark applies, which
// pushes the hypothesis search deeper. simmpi does no work here, so a
// measurement-layer change should not move it.
#include <memory>
#include <vector>

#include "pipeline/codesign_bridge.hpp"
#include "support/csv.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = exareq;
namespace pl = exareq::pipeline;

namespace {

constexpr double kNoise = 0.02;
/// Noise draws per seed. model_recovery is taken over the first this many
/// timed passes, one per draw, so it repeats exactly for a given seed.
constexpr std::size_t kRecoveryPasses = 6;

struct Setup {
  Reference reference;
  std::vector<pl::CampaignData> clean;
};

pl::CampaignData parse_campaign(const std::string& csv, const std::string& app) {
  return pl::CampaignData::from_csv(ex::CsvDocument::parse_string(csv), app);
}

Setup set_up(const Options& options) {
  Setup setup{load_reference(options.data_dir), {}};
  for (const ex::apps::Application* app : all_apps()) {
    setup.clean.push_back(parse_campaign(
        load_committed_csv(options.data_dir, app->name(), setup.reference), app->name()));
  }
  return setup;
}

/// Every measured value times (1 + 2% * z), z standard normal clipped to
/// |z| <= 4 so values stay positive.
pl::CampaignData with_noise(const pl::CampaignData& clean, Rng& rng) {
  pl::CampaignData noisy = clean;
  const auto jitter = [&](double& value) {
    const double z = std::clamp(rng.normal(), -4.0, 4.0);
    value *= 1.0 + kNoise * z;
  };
  for (pl::AppMeasurement& m : noisy.measurements) {
    for (double* value : {&m.bytes_used, &m.flops, &m.loads_stores, &m.bytes_sent_received,
                          &m.stack_distance, &m.io_bytes, &m.energy_proxy}) {
      jitter(*value);
    }
    for (auto& [name, channel] : m.channels) jitter(channel.bytes);
  }
  return noisy;
}

using NoisySet = std::vector<pl::CampaignData>;  ///< one noisy copy per app

/// The kRecoveryPasses noisy sets of a seed. Timed passes cycle through
/// them, so every pass fits the same inputs on every commit, however many
/// passes fit into the run.
std::vector<NoisySet> noisy_sets(const Setup& setup, std::uint64_t seed) {
  std::vector<NoisySet> sets;
  for (std::size_t draw = 0; draw < kRecoveryPasses; ++draw) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + draw + 1);
    NoisySet& noisy = sets.emplace_back();
    for (const pl::CampaignData& clean : setup.clean) noisy.push_back(with_noise(clean, rng));
  }
  return sets;
}

struct PassStats {
  std::uint64_t apps = 0;
  std::uint64_t failed = 0;
  std::size_t fits_checked = 0;
  std::size_t recovered = 0;
  std::size_t compared = 0;
  std::size_t evaluations = 0;
  std::size_t noisy_unfillable = 0;
  ex::model::EngineStats clean_engine;
  ex::model::EngineStats noisy_engine;
};

/// One pass; returns its wall time. `threads` sizes the fit engine (1 in
/// the traced run, where the engine counters must repeat exactly).
double refit_pass(const Setup& setup, const std::vector<pl::CampaignData>& noisy,
                  std::size_t threads, Rng& order_rng, SpanTrace& trace, PassStats& stats,
                  Result& result) {
  std::vector<std::size_t> order(setup.clean.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, order_rng);
  struct Output {
    pl::RequirementModels clean;
    pl::RequirementModels noisy;
    CodesignOutcome clean_codesign;
    CodesignOutcome noisy_codesign;
  };
  std::vector<std::unique_ptr<Output>> outputs(order.size());
  std::vector<std::string> errors(order.size());
  const auto start = Clock::now();
  {
    SpanTrace::Scope root(trace, "pipeline");
    for (const std::size_t i : order) {
      try {
        auto out = std::make_unique<Output>();
        {
          SpanTrace::Scope span(trace, "model.clean");
          out->clean = pl::model_requirements(setup.clean[i], generator_options(threads));
        }
        {
          SpanTrace::Scope span(trace, "codesign");
          out->clean_codesign = run_codesign(pl::to_requirements(out->clean));
        }
        {
          SpanTrace::Scope span(trace, "model.noisy");
          out->noisy = pl::model_requirements(noisy[i], generator_options(threads));
        }
        SpanTrace::Scope span(trace, "codesign");
        out->noisy_codesign = run_codesign(pl::to_requirements(out->noisy));
        outputs[i] = std::move(out);
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    }
  }
  const double wall = seconds_since(start);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    ++stats.apps;
    if (!outputs[i]) {
      ++stats.failed;
      result.mismatch("refit " + setup.clean[i].app_name + " failed: " + errors[i]);
      continue;
    }
    const Output& out = *outputs[i];
    stats.fits_checked += check_fits(out.clean, setup.reference, result);
    const auto clean_fits = labelled_fits(out.clean);
    const auto noisy_fits = labelled_fits(out.noisy);
    for (const auto& [label, fit] : clean_fits) {
      ++stats.compared;
      for (const auto& [noisy_label, noisy_fit] : noisy_fits) {
        if (noisy_label == label && selected_terms(noisy_fit->model) == selected_terms(fit->model)) {
          ++stats.recovered;
        }
      }
    }
    stats.evaluations += out.clean_codesign.evaluations + out.noisy_codesign.evaluations;
    stats.noisy_unfillable += out.noisy_codesign.unfillable;
    stats.clean_engine += out.clean.engine_stats();
    stats.noisy_engine += out.noisy.engine_stats();
  }
  return wall;
}

}  // namespace

void set_up_refit_program(const Options& options, const Ready& ready) {
  // Reading and parsing the nine campaign CSVs; the digest check against
  // the committed references is the benchmark's own and stays out.
  std::vector<pl::CampaignData> clean;
  for (const ex::apps::Application* app : all_apps()) {
    clean.push_back(parse_campaign(
        read_file(options.data_dir + "/" + app->name() + ".csv"), app->name()));
  }
  ready();
}

void run_refit_workload(const Options& options, Result& result) {
  const Setup setup = set_up(options);
  const std::vector<NoisySet> noisy = noisy_sets(setup, options.seed);
  Rng order_rng(options.seed);
  SpanTrace off(false);
  PassStats total;

  if (options.trace == 0) {
    report_setup(options, result);
    PassStats warmup;
    refit_pass(setup, noisy[0], options.threads, order_rng, off, warmup, result);
    std::vector<double> passes;
    PassStats recovery;
    const auto start = Clock::now();
    while (passes.size() < kRecoveryPasses || seconds_since(start) < options.seconds) {
      const std::size_t draw = passes.size() % kRecoveryPasses;
      PassStats& stats = passes.size() < kRecoveryPasses ? recovery : total;
      passes.push_back(
          refit_pass(setup, noisy[draw], options.threads, order_rng, off, stats, result));
    }
    total.apps += recovery.apps + warmup.apps;
    total.failed += recovery.failed + warmup.failed;
    total.fits_checked += recovery.fits_checked + warmup.fits_checked;
    const Quartiles pass = quartiles(passes);
    result.metric("pass_s", pass.q2, "s",
                  {{"q1", pass.q1}, {"q3", pass.q3}, {"n", static_cast<double>(passes.size())}});
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("model_recovery",
                  static_cast<double>(recovery.recovered) / static_cast<double>(recovery.compared),
                  "ratio",
                  {{"n", static_cast<double>(recovery.compared)},
                   {"passes", static_cast<double>(kRecoveryPasses)},
                   {"noise", kNoise}});
    result.info("warmups", 1);
    result.info("repeats", static_cast<double>(passes.size()));
  } else {
    run_probes(options, result);
    PassStats warmup;
    refit_pass(setup, noisy[0], options.threads, order_rng, off, warmup, result);
    PassStats untraced_stats;
    const double untraced = refit_pass(setup, noisy[0], 1, order_rng, off, untraced_stats, result);
    SpanTrace on(true);
    const double traced = refit_pass(setup, noisy[0], 1, order_rng, on, total, result);
    report_self_times(on, traced, traced / untraced - 1.0, result);
    report_engine_stats("model.clean", total.clean_engine, result);
    report_engine_stats("model.noisy", total.noisy_engine, result);
    result.metric("codesign.evaluations", static_cast<double>(total.evaluations), "count");
    result.metric("codesign.noisy_unfillable", static_cast<double>(total.noisy_unfillable), "count");
    result.metric("model.recovery_pass0",
                  static_cast<double>(total.recovered) / static_cast<double>(total.compared), "ratio",
                  {{"n", static_cast<double>(total.compared)}});
    total.apps += warmup.apps + untraced_stats.apps;
    total.failed += warmup.failed + untraced_stats.failed;
    total.fits_checked += warmup.fits_checked + untraced_stats.fits_checked;
    result.info("warmups", 1);
    result.info("repeats", 1);
  }
  result.info("fits_checked", static_cast<double>(total.fits_checked));
  result.info("fail_frac", total.apps ? static_cast<double>(total.failed) / static_cast<double>(total.apps) : 0.0);
  result.attempted += total.apps;
  result.failed += total.failed;
}

}  // namespace perfbench
