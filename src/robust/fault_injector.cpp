#include "robust/fault_injector.hpp"

#include <string>

#include "common/error.hpp"
#include "robust/sanitizer.hpp"

namespace bbmg {

FaultSpec FaultSpec::uniform(double total_rate, std::uint64_t seed) {
  FaultSpec spec;
  const double each = total_rate / 5.0;
  spec.drop_rate = each;
  spec.duplicate_rate = each;
  spec.reorder_rate = each;
  spec.corrupt_id_rate = each;
  spec.perturb_rate = each;
  spec.seed = seed;
  return spec;
}

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  auto check_rate = [](double r, const char* name) {
    BBMG_REQUIRE(r >= 0.0 && r <= 1.0,
                 std::string("fault rate out of [0,1]: ") + name);
  };
  check_rate(spec.drop_rate, "drop_rate");
  check_rate(spec.duplicate_rate, "duplicate_rate");
  check_rate(spec.reorder_rate, "reorder_rate");
  check_rate(spec.corrupt_id_rate, "corrupt_id_rate");
  check_rate(spec.perturb_rate, "perturb_rate");
  check_rate(spec.truncate_rate, "truncate_rate");
}

InjectionResult FaultInjector::corrupt(const Trace& clean) {
  return corrupt_raw(to_raw_periods(clean));
}

InjectionResult FaultInjector::corrupt_raw(
    const std::vector<std::vector<Event>>& periods) {
  InjectionResult res;
  res.periods.reserve(periods.size());
  res.period_touched.assign(periods.size(), false);

  for (std::size_t p = 0; p < periods.size(); ++p) {
    const std::vector<Event>& in = periods[p];
    std::size_t faults_before = res.faults_injected;
    std::vector<Event> out;
    out.reserve(in.size() + 2);

    // Truncation first: everything past a random cut never reached disk.
    std::size_t limit = in.size();
    if (spec_.truncate_rate > 0.0 && !in.empty() &&
        rng_.next_bool(spec_.truncate_rate)) {
      limit = static_cast<std::size_t>(rng_.next_below(in.size()));
      ++res.faults_injected;
    }

    for (std::size_t i = 0; i < limit; ++i) {
      Event e = in[i];
      if (spec_.drop_rate > 0.0 && rng_.next_bool(spec_.drop_rate)) {
        ++res.faults_injected;
        continue;
      }
      if (spec_.perturb_rate > 0.0 && rng_.next_bool(spec_.perturb_rate)) {
        const TimeNs delta =
            spec_.perturb_max == 0
                ? 0
                : static_cast<TimeNs>(rng_.next_below(spec_.perturb_max + 1));
        if (rng_.next_bool(0.5)) {
          e.time += delta;
        } else {
          e.time = e.time > delta ? e.time - delta : 0;
        }
        ++res.faults_injected;
      }
      if ((e.kind == EventKind::MsgRise || e.kind == EventKind::MsgFall) &&
          spec_.corrupt_id_rate > 0.0 && rng_.next_bool(spec_.corrupt_id_rate)) {
        // Flip to a random 11-bit id distinct from the original.
        CanId id = static_cast<CanId>(rng_.next_below(0x800));
        if (id == e.can_id) id = (id + 1) & 0x7ff;
        e.can_id = id;
        ++res.faults_injected;
      }
      out.push_back(e);
      if (spec_.duplicate_rate > 0.0 && rng_.next_bool(spec_.duplicate_rate)) {
        out.push_back(e);
        ++res.faults_injected;
      }
    }

    if (spec_.reorder_rate > 0.0) {
      for (std::size_t i = 0; i + 1 < out.size(); ++i) {
        if (rng_.next_bool(spec_.reorder_rate)) {
          std::swap(out[i], out[i + 1]);
          ++res.faults_injected;
        }
      }
    }

    res.period_touched[p] = res.faults_injected != faults_before;
    res.periods.push_back(std::move(out));
  }
  return res;
}

}  // namespace bbmg
