#include "serve/metrics.hpp"

#include <sstream>

#include "support/format.hpp"
#include "support/table.hpp"

namespace exareq::serve {

double MetricsSnapshot::cache_hit_rate() const {
  const std::uint64_t lookups = cache_hits + cache_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(lookups);
}

void Metrics::merge_into(MetricsSnapshot& snapshot) const {
  snapshot.requests = requests.load(std::memory_order_relaxed);
  snapshot.responses_ok = responses_ok.load(std::memory_order_relaxed);
  snapshot.responses_error = responses_error.load(std::memory_order_relaxed);
  snapshot.sheds = sheds.load(std::memory_order_relaxed);
  snapshot.deadline_drops = deadline_drops.load(std::memory_order_relaxed);
  snapshot.p50_latency_us = latency.quantile_us(0.50);
  snapshot.p99_latency_us = latency.quantile_us(0.99);
  snapshot.mean_latency_us = latency.mean_us();
}

std::string render_status_report(const MetricsSnapshot& snapshot) {
  TextTable table({"Layer", "Counter", "Value"});
  table.set_alignment({Align::kLeft, Align::kLeft, Align::kRight});
  const auto count = [](std::uint64_t value) { return format_count(value); };
  table.add_row({"requests", "submitted", count(snapshot.requests)});
  table.add_row({"requests", "ok", count(snapshot.responses_ok)});
  table.add_row({"requests", "errors", count(snapshot.responses_error)});
  table.add_row({"requests", "shed (queue full)", count(snapshot.sheds)});
  table.add_row({"requests", "deadline drops", count(snapshot.deadline_drops)});
  table.add_row({"requests", "p50 latency [us]",
                 format_compact(snapshot.p50_latency_us)});
  table.add_row({"requests", "p99 latency [us]",
                 format_compact(snapshot.p99_latency_us)});
  table.add_row({"requests", "mean latency [us]",
                 format_compact(snapshot.mean_latency_us)});
  table.add_row({"cache", "hits", count(snapshot.cache_hits)});
  table.add_row({"cache", "misses", count(snapshot.cache_misses)});
  table.add_row({"cache", "evictions", count(snapshot.cache_evictions)});
  table.add_row({"cache", "entries", count(snapshot.cache_entries)});
  table.add_row({"cache", "hit rate",
                 format_fixed(100.0 * snapshot.cache_hit_rate(), 1) + " %"});
  table.add_row({"registry", "lookups", count(snapshot.registry_lookups)});
  table.add_row({"registry", "hits", count(snapshot.registry_hits)});
  table.add_row({"registry", "fits started", count(snapshot.fits_started)});
  table.add_row({"registry", "fits completed", count(snapshot.fits_completed)});
  table.add_row({"registry", "fit failures", count(snapshot.fit_failures)});
  table.add_row({"registry", "single-flight waits",
                 count(snapshot.singleflight_waits)});
  table.add_row({"registry", "in-flight fits", count(snapshot.in_flight_fits)});
  table.add_row({"registry", "files loaded", count(snapshot.files_loaded)});
  table.add_row({"registry", "apps loaded", count(snapshot.apps_loaded)});
  table.add_row({"registry", "hot swaps", count(snapshot.hot_swaps)});
  return table.render();
}

std::string status_line(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "requests=" << snapshot.requests << " ok=" << snapshot.responses_ok
     << " errors=" << snapshot.responses_error << " sheds=" << snapshot.sheds
     << " deadline_drops=" << snapshot.deadline_drops
     << " cache_hits=" << snapshot.cache_hits
     << " cache_misses=" << snapshot.cache_misses
     << " cache_entries=" << snapshot.cache_entries
     << " registry_hits=" << snapshot.registry_hits
     << " fits_started=" << snapshot.fits_started
     << " fits_completed=" << snapshot.fits_completed
     << " in_flight_fits=" << snapshot.in_flight_fits
     << " singleflight_waits=" << snapshot.singleflight_waits
     << " apps=" << snapshot.apps_loaded
     << " hot_swaps=" << snapshot.hot_swaps
     << " p50_us=" << snapshot.p50_latency_us
     << " p99_us=" << snapshot.p99_latency_us
     << " mean_us=" << snapshot.mean_latency_us;
  return os.str();
}

std::string online_status_fields(const online::OnlineStats& stats) {
  std::ostringstream os;
  os << "online_rows=" << stats.rows_ingested
     << " online_pending=" << stats.rows_pending
     << " online_refits=" << stats.refits
     << " online_refit_failures=" << stats.refit_failures
     << " online_rollbacks=" << stats.rollbacks
     << " online_staleness_s=" << format_fixed(stats.staleness_seconds, 3)
     << " online_version=" << stats.last_version;
  return os.str();
}

std::string render_online_section(const online::OnlineStats& stats) {
  TextTable table({"Layer", "Counter", "Value"});
  table.set_alignment({Align::kLeft, Align::kLeft, Align::kRight});
  const auto count = [](std::uint64_t value) { return format_count(value); };
  table.add_row({"online", "batches accepted", count(stats.batches_accepted)});
  table.add_row({"online", "batches rejected", count(stats.batches_rejected)});
  table.add_row({"online", "rows ingested", count(stats.rows_ingested)});
  table.add_row({"online", "rows pending", count(stats.rows_pending)});
  table.add_row({"online", "refits", count(stats.refits)});
  table.add_row({"online", "refit failures", count(stats.refit_failures)});
  table.add_row({"online", "rollbacks", count(stats.rollbacks)});
  table.add_row({"online", "staleness [s]",
                 format_fixed(stats.staleness_seconds, 3)});
  table.add_row({"online", "last version", count(stats.last_version)});
  return table.render();
}

}  // namespace exareq::serve
