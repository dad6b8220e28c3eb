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
// Flag code.  Each value is a set of three flags: F "permits forward",
// B "permits backward" and C "conditional" (a permitted direction may also
// not happen).  || = {}, -> = {F}, <- = {B}, <-> = {F,B}, ->? = {F,C},
// <-? = {B,C}, <->? = {F,B,C}; the bare {C} is not a value.  With the flag
// set as the enum's bits, the diagram above is the subset order, so <= is
// subset, LUB is OR (OR never yields the bare {C}), and the distance is the
// square of the flag count.  The codes are private to the lattice: the
// snapshot and wire formats carry dep_code(), the value's index in
// kAllDepValues.
//
// Note (DESIGN.md §2): the lattice is *stipulated* by the paper as the
// generalization language, it is not derived from the matching semantics;
// the learner uses it through the minimal-generalization and
// minimal-weakening operators below.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bbmg {

// The flag bits; only the lattice's own functions look at them.
namespace detail {
inline constexpr std::uint8_t kF = 4;  // permits forward
inline constexpr std::uint8_t kC = 2;  // conditional
inline constexpr std::uint8_t kB = 1;  // permits backward
}  // namespace detail

enum class DepValue : std::uint8_t {
  Parallel = 0,                                        // ||
  Forward = detail::kF,                                // ->
  Backward = detail::kB,                               // <-
  Mutual = detail::kF | detail::kB,                    // <->
  MaybeForward = detail::kF | detail::kC,              // ->?
  MaybeBackward = detail::kB | detail::kC,             // <-?
  MaybeMutual = detail::kF | detail::kB | detail::kC,  // <->?
};

inline constexpr std::size_t kNumDepValues = 7;

inline constexpr std::array<DepValue, kNumDepValues> kAllDepValues = {
    DepValue::Parallel,      DepValue::Forward,       DepValue::Backward,
    DepValue::Mutual,        DepValue::MaybeForward,  DepValue::MaybeBackward,
    DepValue::MaybeMutual};

namespace detail {
[[nodiscard]] constexpr std::uint8_t flags(DepValue v) {
  return static_cast<std::uint8_t>(v);
}
[[nodiscard]] constexpr DepValue with(DepValue v, std::uint8_t flag) {
  return static_cast<DepValue>(flags(v) | flag);
}
}  // namespace detail

/// Square distance from the lattice bottom || (paper Definition 7):
/// {||}=0, {->,<-}=1, {->?,<->,<-?}=4, {<->?}=9 — the flag count squared.
[[nodiscard]] constexpr unsigned dep_distance(DepValue v) {
  const unsigned c = detail::flags(v);
  const unsigned count = (c >> 2) + ((c >> 1) & 1u) + (c & 1u);
  return count * count;
}

/// Partial order on V: a <= b iff a is more specific than (or equal to) b,
/// i.e. a's flags are a subset of b's.
[[nodiscard]] constexpr bool dep_leq(DepValue a, DepValue b) {
  return (detail::flags(a) & ~detail::flags(b)) == 0;
}

/// Least upper bound (join) of two values: the union of their flags.
[[nodiscard]] constexpr DepValue dep_lub(DepValue a, DepValue b) {
  return detail::with(a, detail::flags(b));
}

/// The value seen from the opposite orientation: mirror(d(t1,t2)) is what a
/// fresh assumption about the same message writes into d(t2,t1).  Swaps F
/// and B.
[[nodiscard]] constexpr DepValue dep_mirror(DepValue v) {
  const std::uint8_t c = detail::flags(v);
  return static_cast<DepValue>((c & detail::kC) | (c & detail::kF) >> 2 |
                               (c & detail::kB) << 2);
}

/// Does v allow t1 (the row task) to determine t2 in some period?
[[nodiscard]] constexpr bool dep_permits_forward(DepValue v) {
  return (detail::flags(v) & detail::kF) != 0;
}

/// Does v allow t1 to depend on t2 in some period?
[[nodiscard]] constexpr bool dep_permits_backward(DepValue v) {
  return (detail::flags(v) & detail::kB) != 0;
}

/// Does v *require* t1, whenever it executes, to determine t2?
[[nodiscard]] constexpr bool dep_requires_forward(DepValue v) {
  return (detail::flags(v) & (detail::kF | detail::kC)) == detail::kF;
}

/// Does v *require* t1, whenever it executes, to depend on t2?
[[nodiscard]] constexpr bool dep_requires_backward(DepValue v) {
  return (detail::flags(v) & (detail::kB | detail::kC)) == detail::kB;
}

/// Minimal generalization making a forward dependency permitted:
/// the least v' >= v with dep_permits_forward(v').  (paper §3.1: "each time
/// we only generalize as much as necessary").
[[nodiscard]] constexpr DepValue dep_generalize_permit_forward(DepValue v) {
  return detail::with(v, detail::kF);
}

/// Minimal generalization making a backward dependency permitted.
[[nodiscard]] constexpr DepValue dep_generalize_permit_backward(DepValue v) {
  return detail::with(v, detail::kB);
}

/// Minimal weakening removing an unmet forward *requirement*: the least
/// v' >= v with !dep_requires_forward(v').  Used by the period-end
/// post-processing ("test conditional dependencies").
[[nodiscard]] constexpr DepValue dep_weaken_forward_requirement(DepValue v) {
  return dep_requires_forward(v) ? detail::with(v, detail::kC) : v;
}

/// Minimal weakening removing an unmet backward requirement.
[[nodiscard]] constexpr DepValue dep_weaken_backward_requirement(DepValue v) {
  return dep_requires_backward(v) ? detail::with(v, detail::kC) : v;
}

/// Direct lower covers of v (the one-step specializations): v with one
/// flag cleared, in the order B, C, F, skipping the bare {C}.  <->? gives
/// ->?, <->, <-?.
[[nodiscard]] std::vector<DepValue> dep_lower_covers(DepValue v);

/// The snapshot/wire byte of v: its index in kAllDepValues, which is
/// F + 2B + 3C.  Only core/matrix_cells translates at that boundary.
[[nodiscard]] constexpr std::uint8_t dep_code(DepValue v) {
  const std::uint8_t c = detail::flags(v);
  return static_cast<std::uint8_t>((c >> 2) + 2 * (c & 1) + 3 * (c >> 1 & 1));
}

/// The value whose dep_code is `code`; nullopt for bytes 7..255.
[[nodiscard]] constexpr std::optional<DepValue> dep_from_code(
    std::uint8_t code) {
  if (code >= kNumDepValues) return std::nullopt;
  return kAllDepValues[code];
}

/// ASCII rendering used in tables and the trace/report formats:
/// "||", "->", "<-", "<->", "->?", "<-?", "<->?".
[[nodiscard]] std::string_view dep_to_string(DepValue v);

/// Parse the ASCII rendering; throws bbmg::Error on unknown token.
[[nodiscard]] DepValue dep_from_string(std::string_view s);

}  // namespace bbmg
