#include "model/term_cache.hpp"

#include <bit>

#include "support/error.hpp"

namespace exareq::model {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::size_t mix(std::size_t seed, std::uint64_t value) {
  // boost::hash_combine's mixing step, widened to 64 bits.
  return seed ^ (static_cast<std::size_t>(value) + 0x9e3779b97f4a7c15ULL +
                 (seed << 6) + (seed >> 2));
}

}  // namespace

std::size_t TermCache::BitwiseHash::operator()(const Factor& factor) const {
  std::size_t seed = factor.parameter;
  seed = mix(seed, bits(factor.poly_exponent));
  seed = mix(seed, bits(factor.log_exponent));
  return mix(seed, static_cast<std::uint64_t>(factor.special));
}

std::size_t TermCache::BitwiseHash::operator()(
    const std::vector<Factor>& factors) const {
  std::size_t seed = factors.size();
  for (const Factor& factor : factors) seed = mix(seed, (*this)(factor));
  return seed;
}

bool TermCache::BitwiseEqual::operator()(const Factor& a, const Factor& b) const {
  return a.parameter == b.parameter &&
         bits(a.poly_exponent) == bits(b.poly_exponent) &&
         bits(a.log_exponent) == bits(b.log_exponent) && a.special == b.special;
}

bool TermCache::BitwiseEqual::operator()(const std::vector<Factor>& a,
                                         const std::vector<Factor>& b) const {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(*this)(a[i], b[i])) return false;
  }
  return true;
}

TermCache::TermCache(const MeasurementSet& data) : data_(&data) {
  // Fused log2 tables: one log2_clamped per (parameter, coordinate), paid
  // once up front; every factor column evaluation below reads from them.
  log2_tables_.resize(data.parameter_count());
  for (std::size_t l = 0; l < log2_tables_.size(); ++l) {
    std::vector<double>& table = log2_tables_[l];
    table.reserve(data.size());
    for (const Coordinate& x : data.coordinates()) {
      table.push_back(log2_clamped(x[l]));
    }
  }
}

const std::vector<double>& TermCache::log2_table(std::size_t parameter) const {
  exareq::require(parameter < log2_tables_.size(),
                  "TermCache::log2_table: parameter out of range");
  return log2_tables_[parameter];
}

const std::vector<double>& TermCache::factor_column_locked(const Factor& factor) {
  const auto it = factor_columns_.find(factor);
  if (it != factor_columns_.end()) return *it->second;
  exareq::require(factor.parameter < log2_tables_.size(),
                  "TermCache: factor parameter out of range");
  const std::vector<double>& log2s = log2_tables_[factor.parameter];
  auto values = std::make_unique<std::vector<double>>();
  values->reserve(data_->size());
  for (std::size_t r = 0; r < data_->size(); ++r) {
    values->push_back(
        factor.evaluate_with_log2(data_->coordinate(r)[factor.parameter],
                                  log2s[r]));
  }
  return *factor_columns_.emplace(factor, std::move(values)).first->second;
}

const std::vector<double>& TermCache::factor_column(const Factor& factor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factor_column_locked(factor);
}

TermId TermCache::intern(const Term& term) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ids_.find(term.factors);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<TermId>(entries_.size());
  entries_.emplace_back().factors = term.factors;
  ids_.emplace(term.factors, id);
  return id;
}

const std::vector<double>& TermCache::column(TermId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  exareq::require(id < entries_.size(), "TermCache::column: unknown id");
  Entry& entry = entries_[id];
  if (entry.values != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *entry.values;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Ordered product of the factor columns — the same multiplications, in
  // the same order, as Term::evaluate_basis per coordinate.
  auto values = std::make_unique<std::vector<double>>(data_->size(), 1.0);
  for (const Factor& factor : entry.factors) {
    const std::vector<double>& part = factor_column_locked(factor);
    for (std::size_t r = 0; r < values->size(); ++r) (*values)[r] *= part[r];
  }
  entry.values = std::move(values);
  return *entry.values;
}

}  // namespace exareq::model
