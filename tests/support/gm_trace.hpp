// The GM case-study trace simulated from a seed: the input most suites
// replay, learn or serve.  The same (seed, periods) always gives the same
// trace.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gen/gm_case_study.hpp"
#include "sim/simulator.hpp"

namespace bbmg {

inline Trace gm_trace(std::uint64_t seed, std::size_t periods) {
  static const SystemModel model = gm_case_study_model();
  SimConfig cfg;
  cfg.seed = seed;
  return simulate_trace(model, periods, cfg);
}

}  // namespace bbmg
