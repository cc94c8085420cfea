#include "serve/registry.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <sstream>

#include "model/serialize.hpp"
#include "support/error.hpp"

namespace exareq::serve {

ModelRegistry::ModelRegistry(Fitter fit_on_demand)
    : fitter_(std::move(fit_on_demand)) {}

std::string ModelRegistry::key_of(const std::string& app) {
  std::string key = app;
  std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return key;
}

void ModelRegistry::insert(codesign::AppRequirements models) {
  publish(std::move(models), online::VersionSource::kInsert);
}

std::uint64_t ModelRegistry::publish(codesign::AppRequirements models,
                                     online::VersionSource source,
                                     std::uint64_t rows,
                                     double mean_abs_relative_error) {
  models.validate();
  exareq::require(!models.name.empty(), "ModelRegistry: bundle has no name");
  auto shared =
      std::make_shared<const codesign::AppRequirements>(std::move(models));
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[key_of(shared->name)];
  const bool first = entry.slot->current() == nullptr;
  const std::uint64_t version = entry.slot->publish(
      std::move(shared), source, rows, mean_abs_relative_error);
  if (first) {
    ++stats_.apps;
  } else {
    ++stats_.hot_swaps;
  }
  // A publish can satisfy lookups waiting on an in-flight fit of this app.
  fit_done_.notify_all();
  return version;
}

bool ModelRegistry::rollback(const std::string& app) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key_of(app));
  if (it == entries_.end()) return false;
  if (!it->second.slot->rollback()) return false;
  ++stats_.hot_swaps;
  return true;
}

bool ModelRegistry::take_gate_locked(const std::string& app) {
  Entry& entry = entries_[key_of(app)];
  if (entry.fitting) return false;
  entry.fitting = true;
  return true;
}

void ModelRegistry::release_gate_locked(const std::string& app) {
  entries_[key_of(app)].fitting = false;
  fit_done_.notify_all();
}

bool ModelRegistry::try_begin_refit(const std::string& app) {
  std::lock_guard<std::mutex> lock(mutex_);
  return take_gate_locked(app);
}

void ModelRegistry::end_refit(const std::string& app) {
  std::lock_guard<std::mutex> lock(mutex_);
  release_gate_locked(app);
}

bool ModelRegistry::try_begin_fit(const std::string& app) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!take_gate_locked(app)) return false;
  ++stats_.fits_started;
  ++stats_.in_flight_fits;
  return true;
}

void ModelRegistry::end_fit(const std::string& app, bool completed) {
  std::lock_guard<std::mutex> lock(mutex_);
  --stats_.in_flight_fits;
  if (completed) {
    ++stats_.fits_completed;
  } else {
    ++stats_.fit_failures;
  }
  release_gate_locked(app);
}

codesign::AppRequirements read_model_file(const std::string& path) {
  std::ifstream file(path);
  exareq::require(file.good(), [&] {
    return "cannot open model file '" + path + "'";
  });
  std::stringstream content;
  content << file.rdbuf();
  const model::ModelBundle bundle = model::parse_bundle(content.str());
  exareq::require(!bundle.name.empty(), [&] {
    return "model file '" + path + "' has no application name header";
  });

  codesign::AppRequirements requirements;
  requirements.name = bundle.name;
  bool have_footprint = false, have_flops = false, have_comm = false,
       have_loads = false, have_stack = false;
  for (const auto& [label, m] : bundle.models) {
    if (label == "footprint") {
      requirements.footprint = m;
      have_footprint = true;
    } else if (label == "flops") {
      requirements.flops = m;
      have_flops = true;
    } else if (label == "comm_bytes") {
      requirements.comm_bytes = m;
      have_comm = true;
    } else if (label == "loads_stores") {
      requirements.loads_stores = m;
      have_loads = true;
    } else if (label == "stack_distance") {
      requirements.stack_distance = m;
      have_stack = true;
    } else if (label == "io_bytes") {
      requirements.io_bytes = m;
    } else if (label == "energy_proxy") {
      requirements.energy_proxy = m;
    } else {
      throw exareq::InvalidArgument("model file '" + path +
                                    "' has unknown model label '" + label + "'");
    }
  }
  exareq::require(
      have_footprint && have_flops && have_comm && have_loads && have_stack,
      [&] {
        return "model file '" + path +
               "' must contain footprint, flops, comm_bytes, loads_stores "
               "and stack_distance models";
      });
  return requirements;
}

std::string ModelRegistry::load_file(const std::string& path) {
  return load_bundle(read_model_file(path));
}

std::string ModelRegistry::load_bundle(codesign::AppRequirements models) {
  std::string name = models.name;
  publish(std::move(models), online::VersionSource::kFile);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.files_loaded;
  return name;
}

std::shared_ptr<const codesign::AppRequirements> ModelRegistry::find(
    const std::string& app) const {
  const auto snapshot = version_of(app);
  return snapshot ? snapshot->models : nullptr;
}

std::shared_ptr<const online::ModelVersion> ModelRegistry::version_of(
    const std::string& app) const {
  std::shared_ptr<online::VersionedModel> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key_of(app));
    if (it == entries_.end()) return nullptr;
    slot = it->second.slot;
  }
  return slot->current();
}

std::shared_ptr<const codesign::AppRequirements> ModelRegistry::get(
    const std::string& app) {
  const std::string key = key_of(app);
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.lookups;
  for (;;) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (const auto snapshot = it->second.slot->current()) {
        ++stats_.hits;
        return snapshot->models;
      }
      if (it->second.fitting) {
        // Another thread — a query-triggered fit or an online refit — is
        // fitting this app: wait for it instead of starting a duplicate
        // fit (single-flight).
        ++stats_.singleflight_waits;
        fit_done_.wait(lock);
        continue;
      }
    }
    break;
  }
  exareq::require(static_cast<bool>(fitter_), [&] {
    return "no models loaded for '" + app +
           "' and the registry has no fit-on-demand callback";
  });
  entries_[key].fitting = true;
  ++stats_.fits_started;
  ++stats_.in_flight_fits;
  lock.unlock();

  std::shared_ptr<const codesign::AppRequirements> fitted;
  std::exception_ptr failure;
  try {
    codesign::AppRequirements models = fitter_(app);
    models.validate();
    if (models.name.empty()) models.name = app;
    fitted =
        std::make_shared<const codesign::AppRequirements>(std::move(models));
  } catch (...) {
    failure = std::current_exception();
  }

  lock.lock();
  --stats_.in_flight_fits;
  Entry& entry = entries_[key];
  entry.fitting = false;
  if (failure) {
    // A failed fit is not cached: the entry keeps no version, so the next
    // lookup retries; wake the waiters so one of them can.
    ++stats_.fit_failures;
    fit_done_.notify_all();
    std::rethrow_exception(failure);
  }
  ++stats_.fits_completed;
  const bool first = entry.slot->current() == nullptr;
  entry.slot->publish(fitted, online::VersionSource::kFitOnDemand);
  if (first) {
    ++stats_.apps;
  } else {
    ++stats_.hot_swaps;
  }
  fit_done_.notify_all();
  return fitted;
}

std::vector<std::string> ModelRegistry::app_names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (const auto snapshot = entry.slot->current()) {
      names.push_back(snapshot->models->name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<ModelInfo> ModelRegistry::model_infos() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<ModelInfo> infos;
  std::lock_guard<std::mutex> lock(mutex_);
  infos.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    const auto snapshot = entry.slot->current();
    if (!snapshot) continue;
    ModelInfo info;
    info.name = snapshot->models->name;
    info.version = snapshot->version;
    info.epoch = entry.slot->epoch();
    info.source = snapshot->source;
    info.rows = snapshot->rows;
    info.mean_abs_relative_error = snapshot->mean_abs_relative_error;
    info.age_seconds =
        std::chrono::duration<double>(now - snapshot->published_at).count();
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const ModelInfo& a, const ModelInfo& b) {
              return a.name < b.name;
            });
  return infos;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace exareq::serve
