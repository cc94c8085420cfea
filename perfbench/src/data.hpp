// Inputs and references the benchmark commits under perfbench/data, the
// stages every workload shares (fitting options, the co-design study), and
// the correctness checks against the references.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/application.hpp"
#include "codesign/requirements.hpp"
#include "model/modelgen.hpp"
#include "pipeline/campaign.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir;
  std::string scratch_dir;    ///< inside the checkout; sockets go here
  std::size_t threads = 1;    ///< min(nproc, 4): campaign, fit and load threads
  std::string self_path;      ///< this binary, for the set-up probes
};

/// The nine applications in registry order.
std::vector<const exareq::apps::Application*> all_apps();

/// Committed references. `terms` holds the selected terms of every clean
/// fit ("app\tfit" -> signature). clean_fits.tsv lists the docs/APPS.md
/// closed form beside each for readers: the seed fitter does not recover
/// every documented form exactly, so the gate pins the selected terms.
struct Reference {
  std::map<std::string, std::string> csv_digest;
  std::map<std::string, std::string> terms;
};
Reference load_reference(const std::string& data_dir);

/// Committed campaign CSV text of one app; throws unless it matches its
/// digest.
std::string load_committed_csv(const std::string& data_dir, const std::string& app,
                               const Reference& reference);

/// Every fit of a model set, labelled: the Table II metrics by their
/// label, then one "chan:<name>" per communication call path.
std::vector<std::pair<std::string, const exareq::model::FitResult*>>
labelled_fits(const exareq::pipeline::RequirementModels& models);

/// The model's selected terms without coefficients, sorted ("const" for a
/// constant model): what model_recovery compares.
std::string selected_terms(const exareq::model::Model& model);

/// Adds a mismatch naming app and fit for every clean fit whose selected
/// terms differ from the reference; returns the number compared.
std::size_t check_fits(const exareq::pipeline::RequirementModels& models,
                       const Reference& reference, Result& result);

/// Adds a mismatch when the campaign's CSV differs from the committed one
/// (whose digest load_committed_csv verified), naming the app and the first
/// differing row.
void check_csv(const exareq::pipeline::CampaignData& data, const std::string& committed,
               Result& result);

/// Fit options of the CLI's `model` command with a fixed engine size.
exareq::model::GeneratorOptions generator_options(std::size_t threads);

/// The co-design stage of a pass: paper upgrades A/B/C at the CLI's default
/// baseline (65536 processes, 2 GiB each), then the paper and accelerator
/// straw-men. An unfillable system is an outcome of the study, not a
/// failure; it is rendered and counted.
struct CodesignOutcome {
  std::string rendering;  ///< every number, full precision
  std::size_t evaluations = 0;
  std::size_t unfillable = 0;
};
CodesignOutcome run_codesign(const exareq::codesign::AppRequirements& app);

/// Fit-engine counters of a set of fits as `<prefix>.hypotheses`,
/// `.cv_solves`, `.qr_extensions`, `.downdates` and `.cache_hit_rate`.
void report_engine_stats(const std::string& prefix,
                         const exareq::model::EngineStats& stats, Result& result);

/// Writes every committed input and reference: the nine campaign CSVs,
/// their digests, the clean fits' selected terms beside docs/APPS.md, and
/// the nine serialized model bundles the serve workload preloads.
int generate_data(const std::string& data_dir, const std::string& apps_md_path,
                  std::size_t threads);

}  // namespace perfbench
