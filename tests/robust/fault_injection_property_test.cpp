// The robustness contract, checked by brute force: feed the
// degradation-aware learner seeded corruptions of a clean trace and verify
// that (1) it never throws, (2) the model it reports never asserts an
// unconditional requirement the *clean* trace refutes, and (3) its
// quarantine accounting adds up.
//
// The refutation oracle mirrors the conformance checker's requirement
// semantics: d(a,b) in {->, <-, <->} claims "whenever a executes, b
// executes too"; a clean period with a running and b absent refutes it.
// The fault model only hides or mangles events — it never invents an
// execution — so the sanitizer + conservative weakening must keep every
// such claim conditional (see DESIGN.md "Noise model & degradation
// semantics").
#include <gtest/gtest.h>

#include <algorithm>

#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "robust/fault_injector.hpp"
#include "robust/robust_online_learner.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

std::vector<std::vector<bool>> executed_masks(const Trace& t) {
  std::vector<std::vector<bool>> masks;
  masks.reserve(t.num_periods());
  for (const Period& p : t.periods()) {
    std::vector<bool> m(t.num_tasks(), false);
    for (const auto& e : p.executions()) m[e.task.index()] = true;
    masks.push_back(std::move(m));
  }
  return masks;
}

// First ordered pair whose requirement claim the clean trace refutes, or
// "" if the model is sound.
std::string first_refuted_claim(const DependencyMatrix& model,
                                const std::vector<std::vector<bool>>& ran,
                                const std::vector<std::string>& names) {
  for (std::size_t a = 0; a < model.num_tasks(); ++a) {
    for (std::size_t b = 0; b < model.num_tasks(); ++b) {
      if (a == b) continue;
      const DepValue v = model.at(a, b);
      if (!dep_requires_forward(v) && !dep_requires_backward(v)) continue;
      for (std::size_t p = 0; p < ran.size(); ++p) {
        if (ran[p][a] && !ran[p][b]) {
          return "d(" + names[a] + "," + names[b] + ")=" +
                 std::string(dep_to_string(v)) + " refuted by clean period " +
                 std::to_string(p);
        }
      }
    }
  }
  return "";
}

void check_soundness(const Trace& clean, double rate, std::uint64_t seed,
                     SanitizePolicy policy) {
  const auto ran = executed_masks(clean);

  FaultInjector injector(FaultSpec::uniform(rate, seed));
  const InjectionResult inj = injector.corrupt(clean);
  ASSERT_EQ(inj.periods.size(), clean.num_periods());

  RobustConfig config;
  config.sanitize.policy = policy;
  RobustOnlineLearner learner(clean.task_names(), config);
  for (const auto& events : inj.periods) {
    (void)learner.observe_raw_period(events);  // must never throw
  }

  EXPECT_EQ(learner.periods_seen(), clean.num_periods());
  EXPECT_EQ(learner.periods_learned() + learner.periods_quarantined(),
            clean.num_periods());
  EXPECT_EQ(learner.snapshot().stats.quarantined_periods,
            learner.periods_quarantined());
  EXPECT_GE(learner.quarantine_rate(), 0.0);
  EXPECT_LE(learner.quarantine_rate(), 1.0);
  EXPECT_FALSE(learner.health_summary().empty());

  const DependencyMatrix model = learner.snapshot().lub();
  EXPECT_EQ(first_refuted_claim(model, ran, clean.task_names()), "")
      << "rate=" << rate << " seed=" << seed
      << " policy=" << sanitize_policy_name(policy);
}

class FaultInjectionSoundness
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultInjectionSoundness, RandomModelNeverLearnsRefutedClaims) {
  const std::uint64_t seed = GetParam();
  RandomModelParams params;
  params.num_tasks = 8;
  params.num_layers = 3;
  params.seed = seed + 100;
  SimConfig cfg;
  cfg.seed = seed * 977 + 13;
  const Trace clean = simulate_trace(random_model(params), 12, cfg);

  for (const double rate : {0.01, 0.05, 0.10}) {
    check_soundness(clean, rate, seed * 1000 + 1, SanitizePolicy::Repair);
  }
  // The no-repairs policy must be sound too (it quarantines more).
  check_soundness(clean, 0.05, seed * 1000 + 2, SanitizePolicy::Quarantine);
}

INSTANTIATE_TEST_SUITE_P(Seeds0To31, FaultInjectionSoundness,
                         ::testing::Range(std::uint64_t{0},
                                          std::uint64_t{32}));

TEST(FaultInjection, ZeroFaultRateIsBitIdenticalToPlainLearner) {
  RandomModelParams params;
  params.num_tasks = 8;
  params.num_layers = 3;
  params.seed = 5;
  SimConfig cfg;
  cfg.seed = 55;
  const Trace clean = simulate_trace(random_model(params), 10, cfg);

  FaultInjector injector(FaultSpec::uniform(0.0, 9));
  const InjectionResult inj = injector.corrupt(clean);
  EXPECT_EQ(inj.faults_injected, 0u);
  EXPECT_EQ(std::count(inj.period_touched.begin(), inj.period_touched.end(),
                       true),
            0);

  RobustOnlineLearner robust(clean.task_names(), RobustConfig{});
  OnlineLearner plain(clean.num_tasks(), OnlineConfig{});
  for (std::size_t p = 0; p < inj.periods.size(); ++p) {
    EXPECT_TRUE(robust.observe_raw_period(inj.periods[p]));
    plain.observe_period(clean.periods()[p]);
  }
  EXPECT_EQ(robust.periods_quarantined(), 0u);
  EXPECT_EQ(robust.repairs(), 0u);
  EXPECT_EQ(robust.health(), HealthState::OK);
  EXPECT_EQ(robust.snapshot().lub(), plain.snapshot().lub());
}

TEST(FaultInjection, TruncationTailLossStaysSound) {
  RandomModelParams params;
  params.num_tasks = 8;
  params.num_layers = 3;
  params.seed = 21;
  SimConfig cfg;
  cfg.seed = 210;
  const Trace clean = simulate_trace(random_model(params), 12, cfg);
  const auto ran = executed_masks(clean);

  FaultSpec spec;
  spec.truncate_rate = 0.4;  // power loss mid-period, ~40% of the time
  spec.drop_rate = 0.02;     // the kind of noise that accompanies it
  spec.seed = 77;
  FaultInjector injector(spec);
  const InjectionResult inj = injector.corrupt(clean);

  RobustOnlineLearner learner(clean.task_names(), RobustConfig{});
  for (const auto& events : inj.periods) {
    (void)learner.observe_raw_period(events);
  }
  EXPECT_EQ(first_refuted_claim(learner.snapshot().lub(), ran,
                                clean.task_names()),
            "");
}

TEST(FaultInjection, GmCaseStudySpotCheck) {
  SimConfig cfg;
  cfg.seed = 7;
  const Trace clean =
      simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);
  for (const std::uint64_t seed : {0u, 1u}) {
    check_soundness(clean, 0.05, seed, SanitizePolicy::Repair);
  }
}

TEST(FaultInjection, HealthDegradesWithTheFaultRate) {
  RandomModelParams params;
  params.num_tasks = 8;
  params.num_layers = 3;
  params.seed = 31;
  SimConfig cfg;
  cfg.seed = 310;
  const Trace clean = simulate_trace(random_model(params), 20, cfg);

  // Saturating corruption must not stay "OK": with every event stream
  // mangled this badly, nearly every period quarantines.
  FaultInjector injector(FaultSpec::uniform(0.9, 3));
  const InjectionResult inj = injector.corrupt(clean);
  RobustOnlineLearner learner(clean.task_names(), RobustConfig{});
  for (const auto& events : inj.periods) {
    (void)learner.observe_raw_period(events);
  }
  EXPECT_GT(learner.periods_quarantined(), 0u);
  EXPECT_NE(learner.health(), HealthState::OK);
}

TEST(FaultInjection, InjectionIsDeterministicPerSeed) {
  RandomModelParams params;
  params.num_tasks = 8;
  params.num_layers = 3;
  params.seed = 8;
  SimConfig cfg;
  cfg.seed = 80;
  const Trace clean = simulate_trace(random_model(params), 6, cfg);

  const FaultSpec spec = FaultSpec::uniform(0.1, 1234);
  const InjectionResult a = FaultInjector(spec).corrupt(clean);
  const InjectionResult b = FaultInjector(spec).corrupt(clean);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (std::size_t p = 0; p < a.periods.size(); ++p) {
    ASSERT_EQ(a.periods[p].size(), b.periods[p].size());
    for (std::size_t i = 0; i < a.periods[p].size(); ++i) {
      EXPECT_EQ(a.periods[p][i].time, b.periods[p][i].time);
      EXPECT_EQ(a.periods[p][i].kind, b.periods[p][i].kind);
    }
  }
}

}  // namespace
}  // namespace bbmg
