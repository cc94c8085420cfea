// Model-fitter benchmark: cold full-grid `exareq model` on every registered
// application (the five paper apps and the four suite-v2 apps). Each
// campaign is measured once; model_requirements then runs cold `--repeat`
// times. Every fit's reported CV score is checked against testkit's
// per-fold reference scorer on the basis it selected, so a run that
// completes has also cross-checked the engine on real app data. Prints
// per-app tables and writes BENCH_fitter.json with a meta block (hardware
// concurrency, compiler, build type, fit threads, repeat count), the median
// wall time and its quartiles, and the engine counters: hypotheses, CV
// solves, prefix extensions, downdates, candidates/sec.
//
//   bench_fitter [--apps kripke,lulesh,...] [--processes L] [--sizes L]
//                [--threads N] [--repeat N] [--out FILE]
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "cli/cli.hpp"
#include "pipeline/campaign.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "testkit/reference_fit.hpp"

namespace {

using namespace exareq;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct AppResult {
  std::string name;
  double campaign_seconds = 0.0;
  double median_seconds = 0.0;
  double q1_seconds = 0.0;
  double q3_seconds = 0.0;
  model::EngineStats stats;
  std::size_t fits_checked = 0;  ///< fits whose CV matched the reference
};

double candidates_per_second(const AppResult& app) {
  if (app.median_seconds <= 0.0) return 0.0;
  return static_cast<double>(app.stats.hypotheses_scored) / app.median_seconds;
}

/// Checks one fit's reported CV against the reference score of its
/// selected basis; throws naming the app and fit on disagreement.
void check_against_reference(const std::string& app, const std::string& fit,
                             const model::MeasurementSet& data,
                             const model::FitResult& result) {
  const std::string diff = testkit::diff_scores(
      "cv", result.quality.cv_score,
      testkit::reference_cv_score(data, testkit::selected_basis(result.model)));
  exareq::require(diff.empty(), [&] {
    return "bench_fitter: " + app + " " + fit +
           " disagrees with the reference scorer: " + diff;
  });
}

AppResult bench_app(apps::AppId id, const pipeline::CampaignConfig& config,
                    std::size_t fit_threads, std::int64_t repeat) {
  const apps::Application& app = apps::application(id);
  AppResult result;
  result.name = app.name();

  const auto start = std::chrono::steady_clock::now();
  const pipeline::CampaignData data = pipeline::run_campaign(app, config);
  result.campaign_seconds = seconds_since(start);

  model::GeneratorOptions options;
  options.fit.threads = fit_threads;
  std::vector<double> samples;
  for (std::int64_t r = 0; r < repeat; ++r) {
    const auto fit_start = std::chrono::steady_clock::now();
    const pipeline::RequirementModels models =
        pipeline::model_requirements(data, options);
    samples.push_back(seconds_since(fit_start));
    if (r > 0) continue;
    result.stats = models.engine_stats();
    for (const pipeline::Metric metric : pipeline::all_metrics()) {
      check_against_reference(result.name, pipeline::metric_label(metric),
                              data.metric_data(metric), models.result(metric));
      ++result.fits_checked;
    }
    for (const pipeline::ChannelModel& channel : models.comm_channels) {
      check_against_reference(result.name, "channel " + channel.name,
                              data.channel_data(channel.name), channel.fit);
      ++result.fits_checked;
    }
  }
  result.median_seconds = exareq::median(samples);
  result.q1_seconds = exareq::quantile(samples, 0.25);
  result.q3_seconds = exareq::quantile(samples, 0.75);
  return result;
}

std::string flag_value(const std::vector<std::string>& args,
                       const std::string& name, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--" + name) return args[i + 1];
  }
  return fallback;
}

std::string lowercase(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(c));
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  pipeline::CampaignConfig config;  // paper default: 5 x 5 full grid
  config.process_counts.clear();
  for (const std::int64_t p :
       cli::parse_int_list(flag_value(args, "processes", "4,8,16,32,64"))) {
    config.process_counts.push_back(static_cast<int>(p));
  }
  config.problem_sizes =
      cli::parse_int_list(flag_value(args, "sizes", "64,128,256,512,1024"));
  const std::size_t fit_threads = static_cast<std::size_t>(
      std::stoll(flag_value(args, "threads", "0")));
  const std::int64_t repeat = std::stoll(flag_value(args, "repeat", "5"));
  exareq::require(repeat >= 1, "bench_fitter: --repeat must be >= 1");
  const std::string out_path = flag_value(args, "out", "BENCH_fitter.json");
  const std::string apps_filter = lowercase(flag_value(args, "apps", ""));
  const std::size_t resolved_threads =
      fit_threads == 0 ? ThreadPool::hardware_threads() : fit_threads;

  std::cout << "fitter benchmark: " << config.process_counts.size() << " x "
            << config.problem_sizes.size() << " grid, fit threads = "
            << resolved_threads << ", repeat = " << repeat << "\n\n";

  TextTable table({"App", "Median [s]", "IQR [s]", "Hypotheses", "CV solves",
                   "Extensions", "Downdates", "Cand/s", "Fits checked"});
  table.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight});
  std::vector<AppResult> results;
  for (const apps::AppId id : apps::all_app_ids()) {
    const std::string name = lowercase(apps::application(id).name());
    if (!apps_filter.empty() &&
        apps_filter.find(name) == std::string::npos) {
      continue;
    }
    results.push_back(bench_app(id, config, fit_threads, repeat));
    const AppResult& r = results.back();
    table.add_row({r.name, format_fixed(r.median_seconds, 3),
                   format_fixed(r.q3_seconds - r.q1_seconds, 3),
                   format_count(r.stats.hypotheses_scored),
                   format_count(r.stats.cv_solves),
                   format_count(r.stats.qr_extensions),
                   format_count(r.stats.downdates),
                   format_count(static_cast<std::size_t>(
                       candidates_per_second(r))),
                   format_count(r.fits_checked)});
  }
  exareq::require(!results.empty(), "bench_fitter: no app matched --apps");
  std::cout << table.render();

  double total_seconds = 0.0;
  std::size_t total_solves = 0;
  for (const AppResult& r : results) {
    total_seconds += r.median_seconds;
    total_solves += r.stats.cv_solves;
  }
  std::cout << "\ntotal: " << format_fixed(total_seconds, 3) << " s (sum of "
            << "medians), " << format_count(total_solves) << " CV solves\n";

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"fitter\",\n"
       << "  \"meta\": {\"hardware_concurrency\": "
       << ThreadPool::hardware_threads() << ", \"compiler\": \"" << kCompiler
       << "\", \"build_type\": \"" << EXAREQ_BUILD_TYPE
       << "\", \"fit_threads\": " << resolved_threads
       << ", \"repeat\": " << repeat << "},\n"
       << "  \"grid\": {\"process_counts\": " << config.process_counts.size()
       << ", \"problem_sizes\": " << config.problem_sizes.size() << "},\n"
       << "  \"apps\": [\n";
  for (std::size_t a = 0; a < results.size(); ++a) {
    const AppResult& r = results[a];
    json << "    {\"app\": \"" << r.name << "\", \"campaign_seconds\": "
         << r.campaign_seconds << ", \"median_seconds\": " << r.median_seconds
         << ", \"q1_seconds\": " << r.q1_seconds
         << ", \"q3_seconds\": " << r.q3_seconds
         << ", \"hypotheses\": " << r.stats.hypotheses_scored
         << ", \"cv_solves\": " << r.stats.cv_solves
         << ", \"qr_extensions\": " << r.stats.qr_extensions
         << ", \"downdates\": " << r.stats.downdates
         << ", \"candidates_per_sec\": " << candidates_per_second(r)
         << ", \"fits_checked\": " << r.fits_checked << "}"
         << (a + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"total\": {\"median_seconds\": " << total_seconds
       << ", \"cv_solves\": " << total_solves << "}\n}\n";
  std::ofstream(out_path) << json.str();
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
