// Model-fitter benchmark: cold full-grid `exareq model` on the five paper
// applications, batched engine (one retained QR per hypothesis generation,
// rank-one LOOCV downdates) vs the scalar per-fold refit loop it replaced.
// Each campaign is measured once; model_requirements then runs cold in both
// engine modes. Prints per-app tables and writes BENCH_fitter.json with a
// meta block (hardware concurrency, compiler, build type, fit threads,
// repeat count), wall time (best of the repeats, plus their median and
// quartiles), CV-solve and downdate counters, candidates/sec, the
// batched-over-scalar speedup, and the solve-count reduction.
//
//   bench_fitter [--apps kripke,lulesh,...] [--processes L] [--sizes L]
//                [--threads N] [--repeat N] [--out FILE]
//
// The scalar mode (batched_cv = false) is bit-for-bit the pre-batching
// fitter, so its column doubles as the regression baseline without needing
// an old binary.
#include <cctype>
#include <chrono>
#include <cmath>
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

struct ModeResult {
  double seconds = 0.0;  ///< best (min) over repeats — cold engines each run
  double median_seconds = 0.0;
  double q1_seconds = 0.0;
  double q3_seconds = 0.0;
  model::EngineStats stats;
  double cv_sum = 0.0;  ///< sum of per-metric CV scores, for cross-checking
};

struct AppResult {
  std::string name;
  double campaign_seconds = 0.0;
  ModeResult scalar;
  ModeResult batched;
};

double candidates_per_second(const ModeResult& mode) {
  if (mode.seconds <= 0.0) return 0.0;
  return static_cast<double>(mode.stats.hypotheses_scored) / mode.seconds;
}

ModeResult run_mode(const pipeline::CampaignData& data, bool batched_cv,
                    std::size_t threads, std::int64_t repeat) {
  ModeResult result;
  std::vector<double> samples;
  for (std::int64_t r = 0; r < repeat; ++r) {
    model::GeneratorOptions options;
    options.fit.batched_cv = batched_cv;
    options.fit.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const pipeline::RequirementModels models =
        pipeline::model_requirements(data, options);
    const double seconds = seconds_since(start);
    samples.push_back(seconds);
    if (r == 0 || seconds < result.seconds) result.seconds = seconds;
    if (r == 0) {
      result.stats = models.engine_stats();
      for (const pipeline::Metric metric : pipeline::all_metrics()) {
        result.cv_sum += models.result(metric).quality.cv_score;
      }
    }
  }
  result.median_seconds = exareq::median(samples);
  result.q1_seconds = exareq::quantile(samples, 0.25);
  result.q3_seconds = exareq::quantile(samples, 0.75);
  return result;
}

AppResult bench_app(apps::AppId id, const pipeline::CampaignConfig& config,
                    std::size_t fit_threads, std::int64_t repeat) {
  const apps::Application& app = apps::application(id);
  AppResult result;
  result.name = app.name();

  const auto start = std::chrono::steady_clock::now();
  const pipeline::CampaignData data = pipeline::run_campaign(app, config);
  result.campaign_seconds = seconds_since(start);

  result.scalar = run_mode(data, /*batched_cv=*/false, fit_threads, repeat);
  result.batched = run_mode(data, /*batched_cv=*/true, fit_threads, repeat);

  // Both engines must agree on fit quality; a drift here means the batched
  // CV diverged from the per-fold refits beyond numerics.
  const double tolerance = 1e-6 * std::max(1.0, std::fabs(result.scalar.cv_sum));
  const double cv_gap = std::fabs(result.batched.cv_sum - result.scalar.cv_sum);
  exareq::require(cv_gap <= tolerance, [&] {
    return "bench_fitter: batched and scalar CV totals diverge on " +
           result.name;
  });
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
  const std::int64_t repeat = std::stoll(flag_value(args, "repeat", "3"));
  const std::string out_path = flag_value(args, "out", "BENCH_fitter.json");
  const std::string apps_filter = lowercase(flag_value(args, "apps", ""));

  std::cout << "fitter benchmark: " << config.process_counts.size() << " x "
            << config.problem_sizes.size() << " grid, fit threads = "
            << (fit_threads == 0 ? ThreadPool::hardware_threads() : fit_threads)
            << ", repeat = " << repeat << "\n";

  std::vector<AppResult> results;
  for (const apps::AppId id : apps::all_app_ids()) {
    const std::string name = lowercase(apps::application(id).name());
    if (!apps_filter.empty() &&
        apps_filter.find(name) == std::string::npos) {
      continue;
    }
    results.push_back(bench_app(id, config, fit_threads, repeat));
    const AppResult& r = results.back();

    TextTable table({"Engine", "Seconds", "Hypotheses", "CV solves",
                     "Extensions", "Downdates", "Cand/s"});
    table.set_alignment({Align::kLeft, Align::kRight, Align::kRight,
                         Align::kRight, Align::kRight, Align::kRight,
                         Align::kRight});
    const auto add = [&](const std::string& label, const ModeResult& mode) {
      table.add_row({label, format_fixed(mode.seconds, 3),
                     format_count(mode.stats.hypotheses_scored),
                     format_count(mode.stats.cv_solves),
                     format_count(mode.stats.qr_extensions),
                     format_count(mode.stats.downdates),
                     format_count(static_cast<std::size_t>(
                         candidates_per_second(mode)))});
    };
    add("scalar", r.scalar);
    add("batched", r.batched);
    std::cout << '\n' << r.name << " (campaign "
              << format_fixed(r.campaign_seconds, 3) << " s)\n"
              << table.render()
              << "speedup " << format_fixed(r.scalar.seconds /
                                            r.batched.seconds, 2)
              << "x, solve reduction "
              << format_fixed(static_cast<double>(r.scalar.stats.cv_solves) /
                              static_cast<double>(std::max<std::size_t>(
                                  r.batched.stats.cv_solves, 1)), 1)
              << "x\n";
  }
  exareq::require(!results.empty(), "bench_fitter: no app matched --apps");

  double scalar_total = 0.0;
  double batched_total = 0.0;
  std::size_t scalar_solves = 0;
  std::size_t batched_solves = 0;
  for (const AppResult& r : results) {
    scalar_total += r.scalar.seconds;
    batched_total += r.batched.seconds;
    scalar_solves += r.scalar.stats.cv_solves;
    batched_solves += r.batched.stats.cv_solves;
  }
  const double speedup = scalar_total / batched_total;
  const double solve_reduction = static_cast<double>(scalar_solves) /
                                 static_cast<double>(
                                     std::max<std::size_t>(batched_solves, 1));
  std::cout << "\ntotal: scalar " << format_fixed(scalar_total, 3)
            << " s, batched " << format_fixed(batched_total, 3)
            << " s, speedup " << format_fixed(speedup, 2)
            << "x, solve reduction " << format_fixed(solve_reduction, 1)
            << "x\n";

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"fitter\",\n"
       << "  \"meta\": {\"hardware_concurrency\": "
       << ThreadPool::hardware_threads() << ", \"compiler\": \"" << kCompiler
       << "\", \"build_type\": \"" << EXAREQ_BUILD_TYPE
       << "\", \"fit_threads\": "
       << (fit_threads == 0 ? ThreadPool::hardware_threads() : fit_threads)
       << ", \"repeat\": " << repeat << "},\n"
       << "  \"grid\": {\"process_counts\": " << config.process_counts.size()
       << ", \"problem_sizes\": " << config.problem_sizes.size() << "},\n"
       << "  \"apps\": [\n";
  for (std::size_t a = 0; a < results.size(); ++a) {
    const AppResult& r = results[a];
    const auto mode_json = [&](const ModeResult& mode) {
      std::ostringstream os;
      os << "{\"seconds\": " << mode.seconds
         << ", \"median_seconds\": " << mode.median_seconds
         << ", \"q1_seconds\": " << mode.q1_seconds
         << ", \"q3_seconds\": " << mode.q3_seconds
         << ", \"hypotheses\": " << mode.stats.hypotheses_scored
         << ", \"cv_solves\": " << mode.stats.cv_solves
         << ", \"qr_extensions\": " << mode.stats.qr_extensions
         << ", \"downdates\": " << mode.stats.downdates
         << ", \"candidates_per_sec\": " << candidates_per_second(mode) << '}';
      return os.str();
    };
    json << "    {\"app\": \"" << r.name << "\",\n"
         << "     \"campaign_seconds\": " << r.campaign_seconds << ",\n"
         << "     \"scalar\": " << mode_json(r.scalar) << ",\n"
         << "     \"batched\": " << mode_json(r.batched) << ",\n"
         << "     \"speedup\": " << r.scalar.seconds / r.batched.seconds
         << "}" << (a + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"total\": {\"scalar_seconds\": " << scalar_total
       << ", \"batched_seconds\": " << batched_total
       << ", \"speedup\": " << speedup
       << ", \"solve_reduction\": " << solve_reduction << "}\n}\n";
  std::ofstream(out_path) << json.str();
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
