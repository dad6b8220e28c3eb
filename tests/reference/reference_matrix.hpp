// Frozen byte-per-cell dependency matrix and hypothesis for the
// differential suite.
//
// A plain copy of lattice/dependency_matrix and core/hypothesis as they
// were before the product matrix started keeping its weight up to date and
// joining cells and weight in one fused pass: weight() is an O(n^2) sum,
// lub() calls dep_lub cell by cell in its own loop, hash() is the FNV
// scan, and assume() is the §3.1 minimal generalization.  The product's
// matrices are compared with these cell by cell, and their cached weights
// with weight() here, so a wrong cached weight, a wrong fused join or a
// changed cell layout shows up as a difference.  Only the lattice value
// functions (lattice/dependency_value.hpp, the definition of the lattice,
// pinned by the frozen truth tables in tests/lattice) and the per-period
// inputs (PeriodCandidates, CoExecutionHistory) are shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "core/candidates.hpp"
#include "core/history.hpp"
#include "lattice/dependency_value.hpp"

namespace bbmg::reference {

class Matrix {
 public:
  Matrix() = default;
  /// Every entry ||.
  explicit Matrix(std::size_t num_tasks)
      : n_(num_tasks), cells_(num_tasks * num_tasks, 0) {}

  [[nodiscard]] std::size_t num_tasks() const { return n_; }

  [[nodiscard]] DepValue at(std::size_t a, std::size_t b) const {
    return a == b ? DepValue::Parallel : static_cast<DepValue>(cells_[a * n_ + b]);
  }
  void set(std::size_t a, std::size_t b, DepValue v);

  [[nodiscard]] bool leq(const Matrix& other) const;
  [[nodiscard]] Matrix lub(const Matrix& other) const;
  [[nodiscard]] std::uint64_t weight() const;
  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.n_ == b.n_ && a.cells_ == b.cells_;
  }
  friend bool operator!=(const Matrix& a, const Matrix& b) { return !(a == b); }

 private:
  std::size_t n_{0};
  std::vector<std::uint8_t> cells_;  // row-major n*n DepValue bytes
};

struct Hypothesis {
  Matrix d;
  DynamicBitset used;  // bit s*n+r = pair (s,r) assumed this period

  explicit Hypothesis(std::size_t num_tasks)
      : d(num_tasks), used(num_tasks * num_tasks) {}
  Hypothesis(Matrix matrix, DynamicBitset assumptions)
      : d(std::move(matrix)), used(std::move(assumptions)) {}

  /// Minimal generalization admitting a message from pair.sender to
  /// pair.receiver, weakened on the spot where `history` refutes a new
  /// requirement (cf. core/hypothesis.hpp).
  void assume(const CandidatePair& pair, const CoExecutionHistory& history);

  [[nodiscard]] bool pair_used(const CandidatePair& pair) const {
    return used.test(pair.pair_index);
  }

  [[nodiscard]] std::uint64_t hash() const { return used.hash_mix(d.hash()); }

  friend bool operator==(const Hypothesis& a, const Hypothesis& b) {
    return a.d == b.d && a.used == b.used;
  }
};

}  // namespace bbmg::reference
