// The seven-value dependency lattice V of the paper (Definition 5, Fig. 3).
//
// A dependency function d : T x T -> V assigns each *ordered* task pair a
// value describing what task t1 does, whenever it executes in a period,
// with respect to task t2:
//
//   ||   (Parallel)      t1 always executes in parallel with t2 — no
//                         dependency in either direction, ever.
//   ->   (Forward)       if t1 executes, it always determines t2's execution
//                         (a message path t1 -> t2 exists in that period).
//   <-   (Backward)      if t1 executes, it always depends on t2.
//   <->  (Mutual)        t1 and t2 always depend on each other (defined for
//                         lattice completeness; unsatisfiable in a period).
//   ->?  (MaybeForward)  if t1 executes, it may or may not determine t2.
//   <-?  (MaybeBackward) if t1 executes, it may or may not depend on t2.
//   <->? (MaybeMutual)   anything may happen (lattice top).
//
// Hasse diagram (bottom to top), distances in braces (Definition 7):
//
//            <->?                 {9}
//          /   |   .
//        ->?  <->  <-?            {4}
//        /   /   .    .
//       ->  '      '  <-          {1}
//         .           /
//             ||                  {0}
//
// Cover relations: || < ->, || < <-, -> < ->?, -> < <->, <- < <-?, <- < <->,
// ->? < <->?, <-> < <->?, <-? < <->?.
//
// Note (DESIGN.md §2): the lattice is *stipulated* by the paper as the
// generalization language, it is not derived from the matching semantics;
// the learner uses it through the minimal-generalization and
// minimal-weakening operators below.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace bbmg {

enum class DepValue : std::uint8_t {
  Parallel = 0,       // ||
  Forward = 1,        // ->
  Backward = 2,       // <-
  Mutual = 3,         // <->
  MaybeForward = 4,   // ->?
  MaybeBackward = 5,  // <-?
  MaybeMutual = 6,    // <->?
};

inline constexpr std::size_t kNumDepValues = 7;

inline constexpr std::array<DepValue, kNumDepValues> kAllDepValues = {
    DepValue::Parallel,      DepValue::Forward,       DepValue::Backward,
    DepValue::Mutual,        DepValue::MaybeForward,  DepValue::MaybeBackward,
    DepValue::MaybeMutual};

/// Square distance from the lattice bottom || (paper Definition 7):
/// {||}=0, {->,<-}=1, {->?,<->,<-?}=4, {<->?}=9.
[[nodiscard]] constexpr unsigned dep_distance(DepValue v) {
  switch (v) {
    case DepValue::Parallel:
      return 0;
    case DepValue::Forward:
    case DepValue::Backward:
      return 1;
    case DepValue::MaybeForward:
    case DepValue::Mutual:
    case DepValue::MaybeBackward:
      return 4;
    case DepValue::MaybeMutual:
      return 9;
  }
  return 0;  // unreachable
}

/// Partial order on V: a <= b iff a is more specific than (or equal to) b.
[[nodiscard]] constexpr bool dep_leq(DepValue a, DepValue b) {
  if (a == b) return true;
  switch (a) {
    case DepValue::Parallel:
      return true;  // bottom
    case DepValue::Forward:
      return b == DepValue::MaybeForward || b == DepValue::Mutual ||
             b == DepValue::MaybeMutual;
    case DepValue::Backward:
      return b == DepValue::MaybeBackward || b == DepValue::Mutual ||
             b == DepValue::MaybeMutual;
    case DepValue::Mutual:
    case DepValue::MaybeForward:
    case DepValue::MaybeBackward:
      return b == DepValue::MaybeMutual;
    case DepValue::MaybeMutual:
      return false;  // top; only <= itself (handled above)
  }
  return false;  // unreachable
}

/// Least upper bound (join) of two values.  V is a lattice, so this is
/// total and unique.
[[nodiscard]] constexpr DepValue dep_lub(DepValue a, DepValue b) {
  if (dep_leq(a, b)) return b;
  if (dep_leq(b, a)) return a;
  // Incomparable pairs: {->,<-} -> <->;  everything else joins at top.
  if ((a == DepValue::Forward && b == DepValue::Backward) ||
      (a == DepValue::Backward && b == DepValue::Forward)) {
    return DepValue::Mutual;
  }
  return DepValue::MaybeMutual;
}

/// dep_lub and dep_distance as lookup tables indexed by the enum value
/// (dep_lub(a, b) at a * 8 + b; index 7 is unused).  They are generated from
/// the functions above at compile time, so those stay the single source of
/// truth; the matrix join runs on the tables instead of the branches.
inline constexpr std::array<DepValue, 64> kDepLubTable = [] {
  std::array<DepValue, 64> t{};
  for (DepValue a : kAllDepValues) {
    for (DepValue b : kAllDepValues) {
      t[static_cast<std::size_t>(a) * 8 + static_cast<std::size_t>(b)] =
          dep_lub(a, b);
    }
  }
  return t;
}();

inline constexpr std::array<std::uint8_t, 8> kDepDistanceTable = [] {
  std::array<std::uint8_t, 8> t{};
  for (DepValue v : kAllDepValues) {
    t[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(dep_distance(v));
  }
  return t;
}();

/// The value seen from the opposite orientation: mirror(d(t1,t2)) is what a
/// fresh assumption about the same message writes into d(t2,t1).
[[nodiscard]] constexpr DepValue dep_mirror(DepValue v) {
  switch (v) {
    case DepValue::Forward:
      return DepValue::Backward;
    case DepValue::Backward:
      return DepValue::Forward;
    case DepValue::MaybeForward:
      return DepValue::MaybeBackward;
    case DepValue::MaybeBackward:
      return DepValue::MaybeForward;
    default:
      return v;  // ||, <->, <->? are self-mirrored
  }
}

/// Does v allow t1 (the row task) to determine t2 in some period?
[[nodiscard]] constexpr bool dep_permits_forward(DepValue v) {
  return v == DepValue::Forward || v == DepValue::MaybeForward ||
         v == DepValue::Mutual || v == DepValue::MaybeMutual;
}

/// Does v allow t1 to depend on t2 in some period?
[[nodiscard]] constexpr bool dep_permits_backward(DepValue v) {
  return v == DepValue::Backward || v == DepValue::MaybeBackward ||
         v == DepValue::Mutual || v == DepValue::MaybeMutual;
}

/// Does v *require* t1, whenever it executes, to determine t2?
[[nodiscard]] constexpr bool dep_requires_forward(DepValue v) {
  return v == DepValue::Forward || v == DepValue::Mutual;
}

/// Does v *require* t1, whenever it executes, to depend on t2?
[[nodiscard]] constexpr bool dep_requires_backward(DepValue v) {
  return v == DepValue::Backward || v == DepValue::Mutual;
}

/// Minimal generalization making a forward dependency permitted:
/// the least v' >= v with dep_permits_forward(v').  (paper §3.1: "each time
/// we only generalize as much as necessary").
[[nodiscard]] constexpr DepValue dep_generalize_permit_forward(DepValue v) {
  switch (v) {
    case DepValue::Parallel:
      return DepValue::Forward;
    case DepValue::Backward:
      return DepValue::Mutual;
    case DepValue::MaybeBackward:
      return DepValue::MaybeMutual;
    default:
      return v;  // already permits
  }
}

/// Minimal generalization making a backward dependency permitted.
[[nodiscard]] constexpr DepValue dep_generalize_permit_backward(DepValue v) {
  switch (v) {
    case DepValue::Parallel:
      return DepValue::Backward;
    case DepValue::Forward:
      return DepValue::Mutual;
    case DepValue::MaybeForward:
      return DepValue::MaybeMutual;
    default:
      return v;
  }
}

/// Minimal weakening removing an unmet forward *requirement*: the least
/// v' >= v with !dep_requires_forward(v').  Used by the period-end
/// post-processing ("test conditional dependencies").
[[nodiscard]] constexpr DepValue dep_weaken_forward_requirement(DepValue v) {
  switch (v) {
    case DepValue::Forward:
      return DepValue::MaybeForward;
    case DepValue::Mutual:
      return DepValue::MaybeMutual;
    default:
      return v;
  }
}

/// Minimal weakening removing an unmet backward requirement.
[[nodiscard]] constexpr DepValue dep_weaken_backward_requirement(DepValue v) {
  switch (v) {
    case DepValue::Backward:
      return DepValue::MaybeBackward;
    case DepValue::Mutual:
      return DepValue::MaybeMutual;
    default:
      return v;
  }
}

/// ASCII rendering used in tables and the trace/report formats:
/// "||", "->", "<-", "<->", "->?", "<-?", "<->?".
[[nodiscard]] std::string_view dep_to_string(DepValue v);

/// Parse the ASCII rendering; throws bbmg::Error on unknown token.
[[nodiscard]] DepValue dep_from_string(std::string_view s);

}  // namespace bbmg
