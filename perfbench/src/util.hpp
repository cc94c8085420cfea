// Shared helpers of the benchmark: clocks, order statistics, a seeded
// generator the benchmark owns (so its inputs never depend on program code),
// hashing, and the result document every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Nanoseconds on the steady clock (for per-request timestamps).
std::int64_t now_ns();

double median(std::vector<double> values);

/// First quartile, median and third quartile with the interpolation of
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
/// the figures agree with the spread the benchmark's users compute.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Exact nearest-rank quantile of a sample (no bucketing): the smallest
/// value with at least q * N samples at or below it.
double exact_quantile(std::vector<double> values, double q);

/// Process high-water resident set size in MiB (getrusage).
double peak_rss_mb();

/// SplitMix64: tiny, fully specified, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Standard normal (Box-Muller).
  double normal();
  /// Exponential with the given mean.
  double exponential(double mean);
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Deterministic shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.index(i)]);
  }
}

std::uint64_t fnv1a64(std::string_view bytes);
std::string hex64(std::uint64_t value);

/// Whole file as a string; throws std::runtime_error naming the path.
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// Everything one run reports. Metrics keep insertion order; `correct`
/// turns false with the first mismatch, and every mismatch is listed by
/// what it concerns (app, metric or request).
class Result {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::vector<std::pair<std::string, double>> detail;  ///< n, q1, q3, ...
  };

  void metric(std::string name, double value, std::string unit,
              std::vector<std::pair<std::string, double>> detail = {});
  void info(std::string name, double value);
  void info_text(std::string name, std::string value);
  void mismatch(std::string what);

  bool correct() const { return mismatches_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The run as one JSON object (see perfbench/schema.json).
  std::string to_json(const std::string& workload, std::uint64_t seed,
                      int trace, double seconds) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::pair<std::string, std::string>> info_text_;
  std::vector<std::string> mismatches_;
};

std::string json_string(std::string_view text);
std::string json_number(double value);

}  // namespace perfbench
