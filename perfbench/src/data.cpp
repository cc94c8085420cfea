#include "data.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "codesign/strawman.hpp"
#include "codesign/upgrade.hpp"
#include "model/serialize.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "pipeline/serve_bridge.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace ex = exareq;

namespace {

std::vector<std::string> split(const std::string& line, char separator) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, separator)) cells.push_back(cell);
  return cells;
}

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find_last_not_of(" \t") - begin + 1);
}

std::string fit_key(const std::string& app, const std::string& fit) {
  return app + '\t' + fit;
}

std::string csv_path(const std::string& dir, const std::string& app) {
  return dir + "/" + app + ".csv";
}

}  // namespace

std::vector<const ex::apps::Application*> all_apps() {
  std::vector<const ex::apps::Application*> apps;
  for (const ex::apps::AppId id : ex::apps::all_app_ids()) {
    apps.push_back(&ex::apps::application(id));
  }
  return apps;
}

Reference load_reference(const std::string& data_dir) {
  Reference reference;
  std::istringstream digests(read_file(data_dir + "/csv_digests.tsv"));
  std::string line;
  while (std::getline(digests, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split(line, '\t');
    if (cells.size() != 2) throw std::runtime_error("csv_digests.tsv: bad line '" + line + "'");
    reference.csv_digest[cells[0]] = cells[1];
  }
  std::istringstream fits(read_file(data_dir + "/clean_fits.tsv"));
  while (std::getline(fits, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split(line, '\t');
    if (cells.size() != 4) throw std::runtime_error("clean_fits.tsv: bad line '" + line + "'");
    reference.terms[fit_key(cells[0], cells[1])] = cells[2];
  }
  if (reference.csv_digest.size() != all_apps().size() || reference.terms.empty()) {
    throw std::runtime_error("reference data in '" + data_dir + "' is incomplete");
  }
  return reference;
}

std::string load_committed_csv(const std::string& data_dir, const std::string& app,
                               const Reference& reference) {
  std::string text = read_file(csv_path(data_dir, app));
  const auto digest = reference.csv_digest.find(app);
  if (digest == reference.csv_digest.end() || hex64(fnv1a64(text)) != digest->second) {
    throw std::runtime_error("committed campaign CSV of " + app +
                             " does not match its digest");
  }
  return text;
}

std::vector<std::pair<std::string, const ex::model::FitResult*>> labelled_fits(
    const ex::pipeline::RequirementModels& models) {
  std::vector<std::pair<std::string, const ex::model::FitResult*>> fits;
  for (const ex::pipeline::Metric metric : ex::pipeline::all_metrics()) {
    fits.emplace_back(ex::pipeline::metric_label(metric), &models.result(metric));
  }
  for (const ex::pipeline::ChannelModel& channel : models.comm_channels) {
    fits.emplace_back("chan:" + channel.name, &channel.fit);
  }
  return fits;
}

std::string selected_terms(const ex::model::Model& model) {
  std::vector<std::string> terms;
  for (const ex::model::Term& term : model.terms()) {
    std::string text;
    for (const ex::model::Factor& factor : term.factors) {
      if (!text.empty()) text += " * ";
      text += factor.to_string(model.parameter_names()[factor.parameter]);
    }
    terms.push_back(text);
  }
  if (terms.empty()) return "const";
  std::sort(terms.begin(), terms.end());
  std::string joined;
  for (const std::string& term : terms) joined += (joined.empty() ? "" : " + ") + term;
  return joined;
}

std::size_t check_fits(const ex::pipeline::RequirementModels& models,
                       const Reference& reference, Result& result) {
  std::size_t compared = 0;
  for (const auto& [label, fit] : labelled_fits(models)) {
    const auto expected = reference.terms.find(fit_key(models.app_name, label));
    const std::string actual = selected_terms(fit->model);
    ++compared;
    if (expected == reference.terms.end()) {
      result.mismatch("fit " + models.app_name + " / " + label +
                      ": not in the reference (selected " + actual + ")");
    } else if (expected->second != actual) {
      result.mismatch("fit " + models.app_name + " / " + label + ": selected " +
                      actual + ", reference " + expected->second);
    }
  }
  return compared;
}

void check_csv(const ex::pipeline::CampaignData& data, const std::string& committed,
               Result& result) {
  const std::string text = data.to_csv().to_string();
  if (text == committed) return;
  std::istringstream fresh(text);
  std::istringstream expected(committed);
  std::string a;
  std::string b;
  int row = 0;
  while (std::getline(fresh, a) && std::getline(expected, b) && a == b) ++row;
  result.mismatch("campaign CSV " + data.app_name + ": differs from the committed CSV " +
                  (row == 0 ? "in the header" : "first in row " + std::to_string(row)));
}

ex::model::GeneratorOptions generator_options(std::size_t threads) {
  ex::model::GeneratorOptions options;
  options.fit.threads = threads;
  return options;
}

CodesignOutcome run_codesign(const ex::codesign::AppRequirements& app) {
  CodesignOutcome outcome;
  std::ostringstream os;
  os.precision(17);
  const ex::codesign::SystemSkeleton base{65536.0, 2147483648.0};
  for (const auto& upgrade : ex::codesign::paper_upgrades()) {
    ++outcome.evaluations;
    try {
      const auto result = ex::codesign::evaluate_upgrade(app, base, upgrade).outcome;
      os << result.problem_size_ratio << ',' << result.overall_problem_ratio << ','
         << result.computation_ratio << ',' << result.communication_ratio << ','
         << result.memory_access_ratio << ';';
    } catch (const ex::NumericError&) {
      ++outcome.unfillable;
      os << "unfillable;";
    }
  }
  auto systems = ex::codesign::paper_strawmen();
  const auto accelerators = ex::codesign::accelerator_strawmen();
  systems.insert(systems.end(), accelerators.begin(), accelerators.end());
  for (const auto& system : systems) {
    ++outcome.evaluations;
    const auto result = ex::codesign::evaluate_strawman(app, system);
    if (!result.feasible) ++outcome.unfillable;
    os << result.feasible << ',' << result.problem_size_per_process << ','
       << result.max_overall_problem << ';';
  }
  outcome.rendering = os.str();
  return outcome;
}

void report_engine_stats(const std::string& prefix, const ex::model::EngineStats& stats,
                         Result& result) {
  result.metric(prefix + ".hypotheses", static_cast<double>(stats.hypotheses_scored), "count");
  result.metric(prefix + ".cv_solves", static_cast<double>(stats.cv_solves), "count");
  result.metric(prefix + ".qr_extensions", static_cast<double>(stats.qr_extensions), "count");
  result.metric(prefix + ".downdates", static_cast<double>(stats.downdates), "count");
  result.metric(prefix + ".cache_hit_rate", stats.cache_hit_rate(), "ratio");
}

int generate_data(const std::string& data_dir, const std::string& apps_md_path,
                  std::size_t threads) {
  // docs/APPS.md rows: | App | bytes used | flop | sent/recv | loads & stores |
  // stack distance | file I/O |, in the order of the first six metrics.
  std::map<std::string, std::vector<std::string>> documented;
  std::istringstream doc(read_file(apps_md_path));
  std::string line;
  while (std::getline(doc, line)) {
    auto cells = split(line, '|');
    if (cells.size() < 8) continue;
    std::vector<std::string> row;
    for (std::size_t i = 1; i < 8; ++i) row.push_back(trim(cells[i]));
    documented[row[0]] = std::vector<std::string>(row.begin() + 1, row.end());
  }

  std::ostringstream digests;
  std::ostringstream fits;
  digests << "# app\tFNV-1a-64 of the campaign CSV (default 5x5 grid, balanced sampling)\n";
  fits << "# app\tfit\tselected terms of the clean fit\tdocs/APPS.md\n";
  ex::pipeline::CampaignConfig config;
  config.threads = threads;
  for (const ex::apps::Application* app : all_apps()) {
    std::cerr << "generating " << app->name() << "\n";
    const auto data = ex::pipeline::run_campaign(*app, config);
    const std::string csv = data.to_csv().to_string();
    write_file(csv_path(data_dir, app->name()), csv);
    digests << app->name() << '\t' << hex64(fnv1a64(csv)) << '\n';
    const auto models = ex::pipeline::model_requirements(data, generator_options(threads));
    const auto metrics = ex::pipeline::all_metrics();
    const auto row = documented.find(app->name());
    for (const auto& [label, fit] : labelled_fits(models)) {
      std::string expected = "-";
      for (std::size_t i = 0; i < metrics.size() && row != documented.end(); ++i) {
        if (ex::pipeline::metric_label(metrics[i]) == label && i < row->second.size()) {
          expected = row->second[i];
        }
      }
      fits << app->name() << '\t' << label << '\t' << selected_terms(fit->model) << '\t'
           << expected << '\n';
    }
    write_file(data_dir + "/" + app->name() + ".models",
               ex::model::serialize_bundle(ex::pipeline::to_model_bundle(models)));
  }
  write_file(data_dir + "/csv_digests.tsv", digests.str());
  write_file(data_dir + "/clean_fits.tsv", fits.str());
  return 0;
}

}  // namespace perfbench
