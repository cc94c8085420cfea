#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace exareq::obs {

void LatencyHistogram::record(double microseconds) {
  if (!(microseconds >= 0.0)) microseconds = 0.0;
  const auto us = static_cast<std::uint64_t>(microseconds);
  // Bucket b holds samples in [2^(b-1), 2^b); bucket 0 holds [0, 1).
  const std::size_t bucket =
      std::min<std::size_t>(std::bit_width(us), kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

double LatencyHistogram::quantile_us(double q) const {
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= rank) {
      return b == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(b));
    }
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets - 1));
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::sum() const {
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed));
}

double LatencyHistogram::mean_us() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

void LatencyHistogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry registry;
  return registry;
}

namespace {

/// The three instrument maps share one namespace: registering "x" as a
/// counter and as a gauge is a naming bug worth failing loudly on.
template <typename Map>
bool contains(const Map& map, std::string_view name) {
  return map.find(name) != map.end();
}

}  // namespace

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  exareq::require(
      !contains(gauges_, name) && !contains(histograms_, name), [&] {
        return "MetricRegistry: '" + std::string(name) +
               "' is already registered as a different kind";
      });
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  exareq::require(
      !contains(counters_, name) && !contains(histograms_, name), [&] {
        return "MetricRegistry: '" + std::string(name) +
               "' is already registered as a different kind";
      });
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

LatencyHistogram& MetricRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  exareq::require(!contains(counters_, name) && !contains(gauges_, name), [&] {
    return "MetricRegistry: '" + std::string(name) +
           "' is already registered as a different kind";
  });
  return *histograms_
              .emplace(std::string(name), std::make_unique<LatencyHistogram>())
              .first->second;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

namespace {

std::string compact_double(double value) {
  std::ostringstream os;
  os.precision(15);
  os << value;
  return os.str();
}

}  // namespace

std::string MetricRegistry::render_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // std::map keeps names sorted; merge the three kinds into one sorted list
  // by emitting rows into an ordered map of lines.
  std::map<std::string, std::string> lines;
  for (const auto& [name, counter] : counters_) {
    lines[name] = std::to_string(counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    lines[name] = compact_double(gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    lines[name] = "count=" + std::to_string(histogram->count()) +
                  " mean_us=" + compact_double(histogram->mean_us()) +
                  " p50_us=" + compact_double(histogram->quantile_us(0.50)) +
                  " p99_us=" + compact_double(histogram->quantile_us(0.99));
  }
  std::string out;
  for (const auto& [name, value] : lines) {
    out += name;
    out += ' ';
    out += value;
    out += '\n';
  }
  return out;
}

std::string MetricRegistry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::string> entries;
  for (const auto& [name, counter] : counters_) {
    entries[name] = std::to_string(counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    entries[name] = compact_double(gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    entries[name] =
        "{\"count\":" + std::to_string(histogram->count()) +
        ",\"mean_us\":" + compact_double(histogram->mean_us()) +
        ",\"p50_us\":" + compact_double(histogram->quantile_us(0.50)) +
        ",\"p99_us\":" + compact_double(histogram->quantile_us(0.99)) + "}";
  }
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + name + "\": " + value;
  }
  out += "\n}\n";
  return out;
}

}  // namespace exareq::obs
