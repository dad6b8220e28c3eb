// Fault-tolerant trace ingestion, layer 3: a seeded fault injector that
// corrupts clean traces the way a real logging chain does — dropped frames,
// duplicated events, local reorderings, clock jitter, corrupted CAN ids and
// truncated period tails.  Used by the robustness tests and
// bench_robustness to establish the key soundness property: learning over
// the sanitized corrupt stream never asserts a dependency value the clean
// trace refutes (see DESIGN.md "Noise model & degradation semantics").
//
// All corruption flows through Rng, so every run is reproducible from the
// FaultSpec seed.  Note the fault model mirrors what hardware can do to a
// log: it removes, repeats, displaces and mangles events, but it never
// fabricates an event for a task that produced none — the invariant the
// sanitizer's observed-task masks rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace bbmg {

struct FaultSpec {
  /// Per-event probability that the event is silently dropped.
  double drop_rate{0.0};
  /// Per-event probability that the event is emitted twice.
  double duplicate_rate{0.0};
  /// Per-adjacent-pair probability that two events swap places.
  double reorder_rate{0.0};
  /// Per-message-event probability that its CAN id is replaced.
  double corrupt_id_rate{0.0};
  /// Per-event probability that the timestamp moves by up to perturb_max
  /// in either direction (clamped at zero).
  double perturb_rate{0.0};
  TimeNs perturb_max{100 * kTimeNsPerUs};
  /// Per-period probability that a random-length tail is cut off
  /// (power loss / log rotation mid-period).
  double truncate_rate{0.0};
  std::uint64_t seed{1};

  /// Spread `total_rate` evenly over the five per-event fault kinds
  /// (drop, duplicate, reorder, corrupt id, perturb); truncation stays 0.
  [[nodiscard]] static FaultSpec uniform(double total_rate,
                                         std::uint64_t seed);
};

struct InjectionResult {
  std::vector<std::vector<Event>> periods;
  std::size_t faults_injected{0};
  /// Per raw period: did at least one fault land in it?
  std::vector<bool> period_touched;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  /// Corrupt every period of a clean trace (advances the injector's RNG).
  [[nodiscard]] InjectionResult corrupt(const Trace& clean);
  [[nodiscard]] InjectionResult corrupt_raw(
      const std::vector<std::vector<Event>>& periods);

 private:
  FaultSpec spec_;
  Rng rng_;
};

}  // namespace bbmg
