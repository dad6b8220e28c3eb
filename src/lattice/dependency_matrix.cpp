#include "lattice/dependency_matrix.hpp"

#include <cstring>

#include "common/error.hpp"

namespace bbmg {

namespace {

/// out[i] = dep_lub(a[i], b[i]) for i < size (out may alias a); returns the
/// weight of out.  Eight cells at a time: the LUB is a byte-wise OR, and a
/// cell's distance, its flag count c squared, is c plus twice the number
/// of flag pairs it holds (c + c(c-1) = c^2), at most 9 per byte, so one
/// multiply sums the eight distances of a word.  Starts on a cache line,
/// so its loop sits at the same offsets whatever code the linker places
/// before it (see OnlineLearner::observe_period).
[[gnu::aligned(64)]] std::uint64_t join_cells(const DepValue* a,
                                              const DepValue* b, DepValue* out,
                                              std::size_t size) {
  constexpr std::uint64_t kLow = 0x0101010101010101ull;  // bit 0 of each byte
  std::uint64_t w = 0;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    x |= y;
    std::memcpy(out + i, &x, 8);
    const std::uint64_t f0 = x & kLow;
    const std::uint64_t f1 = (x >> 1) & kLow;
    const std::uint64_t f2 = (x >> 2) & kLow;
    const std::uint64_t d =
        f0 + f1 + f2 + 2 * ((f0 & f1) + (f0 & f2) + (f1 & f2));
    w += (d * kLow) >> 56;
  }
  for (; i < size; ++i) {
    out[i] = dep_lub(a[i], b[i]);
    w += dep_distance(out[i]);
  }
  return w;
}

}  // namespace

DependencyMatrix::DependencyMatrix(std::size_t num_tasks)
    : n_(num_tasks), cells_(num_tasks * num_tasks, DepValue::Parallel) {}

DependencyMatrix DependencyMatrix::top(std::size_t num_tasks) {
  DependencyMatrix m(num_tasks);
  for (std::size_t a = 0; a < num_tasks; ++a) {
    for (std::size_t b = 0; b < num_tasks; ++b) {
      if (a != b) m.cells_[a * num_tasks + b] = DepValue::MaybeMutual;
    }
  }
  m.weight_ = std::uint64_t{dep_distance(DepValue::MaybeMutual)} * num_tasks *
              (num_tasks - 1);
  return m;
}

void DependencyMatrix::set(std::size_t a, std::size_t b, DepValue v) {
  BBMG_REQUIRE(a < n_ && b < n_, "task index out of range");
  BBMG_REQUIRE(a != b, "diagonal entries are fixed to ||");
  DepValue& cell = cells_[a * n_ + b];
  weight_ = weight_ - dep_distance(cell) + dep_distance(v);
  cell = v;
}

void DependencyMatrix::set_pair(std::size_t a, std::size_t b, DepValue v) {
  set(a, b, v);
  set(b, a, dep_mirror(v));
}

bool DependencyMatrix::leq(const DependencyMatrix& other) const {
  BBMG_REQUIRE(n_ == other.n_, "matrix size mismatch");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!dep_leq(cells_[i], other.cells_[i])) return false;
  }
  return true;
}

DependencyMatrix DependencyMatrix::lub(const DependencyMatrix& other) const {
  BBMG_REQUIRE(n_ == other.n_, "matrix size mismatch");
  DependencyMatrix out(n_);
  out.weight_ = join_cells(cells_.data(), other.cells_.data(),
                           out.cells_.data(), cells_.size());
  return out;
}

void DependencyMatrix::join(const DependencyMatrix& other) {
  BBMG_REQUIRE(n_ == other.n_, "matrix size mismatch");
  weight_ = join_cells(cells_.data(), other.cells_.data(), cells_.data(),
                       cells_.size());
}

std::uint64_t DependencyMatrix::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ n_;
  for (DepValue v : cells_) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string DependencyMatrix::to_table(
    const std::vector<std::string>& names) const {
  auto name_of = [&](std::size_t i) -> std::string {
    if (i < names.size()) return names[i];
    return "t" + std::to_string(i);
  };

  // Compute column widths.
  std::size_t label_w = 0;
  for (std::size_t i = 0; i < n_; ++i) label_w = std::max(label_w, name_of(i).size());
  std::vector<std::size_t> col_w(n_);
  for (std::size_t b = 0; b < n_; ++b) {
    col_w[b] = name_of(b).size();
    for (std::size_t a = 0; a < n_; ++a) {
      col_w[b] = std::max(col_w[b], dep_to_string(at(a, b)).size());
    }
  }

  auto pad = [](std::string s, std::size_t w) {
    s.resize(std::max(s.size(), w), ' ');
    return s;
  };

  std::string out = pad("", label_w);
  for (std::size_t b = 0; b < n_; ++b) out += "  " + pad(name_of(b), col_w[b]);
  out += "\n";
  for (std::size_t a = 0; a < n_; ++a) {
    out += pad(name_of(a), label_w);
    for (std::size_t b = 0; b < n_; ++b) {
      out += "  " + pad(std::string(dep_to_string(at(a, b))), col_w[b]);
    }
    out += "\n";
  }
  return out;
}

std::size_t DependencyMatrix::count_value(DepValue v) const {
  std::size_t c = 0;
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (a != b && at(a, b) == v) ++c;
    }
  }
  return c;
}

DependencyMatrix lub_all(const std::vector<DependencyMatrix>& ms) {
  BBMG_REQUIRE(!ms.empty(), "lub_all needs a non-empty set");
  DependencyMatrix acc = ms.front();
  for (std::size_t i = 1; i < ms.size(); ++i) acc.join(ms[i]);
  return acc;
}

}  // namespace bbmg
