#include "reference/reference_matrix.hpp"

#include "common/error.hpp"

namespace bbmg::reference {

void Matrix::set(std::size_t a, std::size_t b, DepValue v) {
  BBMG_REQUIRE(a < n_ && b < n_, "task index out of range");
  BBMG_REQUIRE(a != b, "diagonal entries are fixed to ||");
  cells_[a * n_ + b] = static_cast<std::uint8_t>(v);
}

bool Matrix::leq(const Matrix& other) const {
  BBMG_REQUIRE(n_ == other.n_, "matrix size mismatch");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!dep_leq(static_cast<DepValue>(cells_[i]),
                 static_cast<DepValue>(other.cells_[i]))) {
      return false;
    }
  }
  return true;
}

Matrix Matrix::lub(const Matrix& other) const {
  BBMG_REQUIRE(n_ == other.n_, "matrix size mismatch");
  Matrix out(n_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out.cells_[i] = static_cast<std::uint8_t>(dep_lub(
        static_cast<DepValue>(cells_[i]), static_cast<DepValue>(other.cells_[i])));
  }
  return out;
}

std::uint64_t Matrix::weight() const {
  std::uint64_t w = 0;
  for (std::uint8_t v : cells_) w += dep_distance(static_cast<DepValue>(v));
  return w;
}

std::uint64_t Matrix::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ n_;
  for (std::uint8_t v : cells_) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
  }
  return h;
}

void Hypothesis::assume(const CandidatePair& pair,
                        const CoExecutionHistory& history) {
  const std::size_t s = pair.sender.index();
  const std::size_t r = pair.receiver.index();

  const DepValue old_fwd = d.at(s, r);
  DepValue fwd = dep_generalize_permit_forward(old_fwd);
  if (fwd != old_fwd && dep_requires_forward(fwd) &&
      history.ran_without(s, r)) {
    fwd = dep_weaken_forward_requirement(fwd);
  }
  d.set(s, r, fwd);

  const DepValue old_bwd = d.at(r, s);
  DepValue bwd = dep_generalize_permit_backward(old_bwd);
  if (bwd != old_bwd && dep_requires_backward(bwd) &&
      history.ran_without(r, s)) {
    bwd = dep_weaken_backward_requirement(bwd);
  }
  d.set(r, s, bwd);

  used.set(pair.pair_index);
}

}  // namespace bbmg::reference
