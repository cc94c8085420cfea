#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.q2 = median(values);
  if (values.size() == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  const auto size = static_cast<long>(values.size());
  const long m = size + 1;
  const auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, size - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::exponential(double mean) {
  return -mean * std::log(1.0 - uniform());
}

std::size_t Rng::index(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  if (!file) throw std::runtime_error("cannot write '" + path + "'");
}

void Result::metric(std::string name, double value, std::string unit,
                    std::vector<std::pair<std::string, double>> detail) {
  metrics_.push_back({std::move(name), value, std::move(unit), std::move(detail)});
}

void Result::info(std::string name, double value) {
  info_.emplace_back(std::move(name), value);
}

void Result::info_text(std::string name, std::string value) {
  info_text_.emplace_back(std::move(name), std::move(value));
}

void Result::mismatch(std::string what) {
  if (std::find(mismatches_.begin(), mismatches_.end(), what) == mismatches_.end()) {
    mismatches_.push_back(std::move(what));
  }
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Result::to_json(const std::string& workload, std::uint64_t seed,
                            int trace, double seconds) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << trace << ", \"seconds\": " << json_number(seconds)
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"mismatches\": [";
  for (std::size_t i = 0; i < mismatches_.size(); ++i) {
    os << (i ? ", " : "") << json_string(mismatches_[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit);
    for (const auto& [key, value] : m.detail) {
      os << ", " << json_string(key) << ": " << json_number(value);
    }
    os << "}";
  }
  os << "}, \"info\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_number(value);
    first = false;
  }
  for (const auto& [key, value] : info_text_) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
