// Per-MeasurementSet basis-column cache, structure-of-arrays.
//
// Every hypothesis scoring step needs the column of a term's basis values
// over all coordinates of the data set — for the full-fit design matrix,
// for each leave-one-out fold, and for the left-out prediction. Without a
// cache the same `Term::evaluate_basis` column is recomputed
// O(pool x folds x search rounds) times per fit; with it, each distinct
// basis is evaluated exactly once and folds merely index into the column.
//
// Construction is layered bottom-up in SoA form: one fused log2 table per
// parameter (log2_clamped of every coordinate, computed once), factor
// columns evaluated against those tables and shared across every term that
// contains the factor, and term columns formed as ordered products of
// factor columns. Caching changes nothing numerically: each factor value is
// the very double `Factor::evaluate` returns, multiplied in the same order
// as `Term::evaluate_basis`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/measurement.hpp"
#include "model/model.hpp"

namespace exareq::model {

/// Dense id of a distinct term basis within one TermCache, assigned the
/// first time the cache sees it (0, 1, 2, ...). Two terms share an id
/// exactly when their factors are bitwise equal, coefficients ignored.
using TermId = std::uint32_t;

/// Thread-safe memoized basis columns over one MeasurementSet. The set must
/// outlive the cache.
///
/// Terms are interned: `intern` maps a term's factor list to a dense id
/// without building any key string, and every later lookup is an index. An
/// ordered id sequence identifies a hypothesis, which is how the fit
/// engine keys its score memo.
class TermCache {
 public:
  explicit TermCache(const MeasurementSet& data);

  /// Id of `term`'s basis, assigned on first sight. Does not evaluate the
  /// column.
  TermId intern(const Term& term);

  /// Basis values of term `id` at every coordinate of the data set,
  /// computed on first use as the ordered product of the term's factor
  /// columns. The returned reference stays valid for the cache's lifetime
  /// (entries are never evicted). Every call counts as one hit or miss.
  const std::vector<double>& column(TermId id);

  /// Basis values of a single factor over the data — the SoA building
  /// block; a factor shared by many terms is evaluated exactly once.
  const std::vector<double>& factor_column(const Factor& factor);

  /// Fused log2_clamped table of one parameter's coordinates.
  const std::vector<double>& log2_table(std::size_t parameter) const;

  /// Hit/miss counters of term-column lookups (basis_columns_* in
  /// EngineStats); factor-column reuse is an implementation detail below
  /// them and is not counted.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  /// Bitwise hash and equality of factors and factor lists (the interning
  /// keys): two keys match exactly when every field has the same bits.
  struct BitwiseHash {
    std::size_t operator()(const Factor& factor) const;
    std::size_t operator()(const std::vector<Factor>& factors) const;
  };
  struct BitwiseEqual {
    bool operator()(const Factor& a, const Factor& b) const;
    bool operator()(const std::vector<Factor>& a,
                    const std::vector<Factor>& b) const;
  };
  struct Entry {
    std::vector<Factor> factors;
    std::unique_ptr<std::vector<double>> values;  ///< null until first use
  };

  const std::vector<double>& factor_column_locked(const Factor& factor);

  const MeasurementSet* data_;
  /// log2_tables_[l][r] = log2_clamped(coordinate(r)[l]).
  std::vector<std::vector<double>> log2_tables_;
  mutable std::mutex mutex_;
  std::unordered_map<std::vector<Factor>, TermId, BitwiseHash, BitwiseEqual>
      ids_;
  std::deque<Entry> entries_;  ///< by id; deque keeps references stable
  std::unordered_map<Factor, std::unique_ptr<std::vector<double>>, BitwiseHash,
                     BitwiseEqual>
      factor_columns_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace exareq::model
