// SessionManager: the concurrency contract.  The headline property is
// determinism — a session's served model is byte-identical to what a
// single-threaded RobustOnlineLearner computes from the same event
// sequence, no matter how many sessions and producer threads run at once —
// plus backpressure accounting, drain/snapshot freshness, and probe
// conformance verdicts.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "durable/wal.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "lattice/matrix_io.hpp"
#include "robust/fault_injector.hpp"
#include "serve/session_manager.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg {
namespace {

struct Workload {
  Trace clean;
  std::vector<std::vector<Event>> raw_periods;  // possibly corrupted
};

/// Per-seed workload: a simulated system plus a seeded corruption of its
/// trace, so both the clean learning path and the sanitizer/quarantine
/// path are exercised.
Workload make_workload(std::uint64_t seed, std::size_t periods = 10) {
  RandomModelParams params;
  params.num_tasks = 6 + seed % 4;
  params.num_layers = 3;
  params.seed = seed + 1;
  SimConfig cfg;
  cfg.seed = seed * 17 + 3;
  Workload w;
  w.clean = simulate_trace(random_model(params), periods, cfg);
  FaultInjector injector(FaultSpec::uniform(0.03, seed));
  w.raw_periods = injector.corrupt(w.clean).periods;
  return w;
}

/// The single-threaded reference: same config, same periods, same order.
RobustSnapshot offline_reference(const Workload& w) {
  RobustOnlineLearner learner(w.clean.task_names(), RobustConfig{});
  for (const auto& events : w.raw_periods) {
    (void)learner.observe_raw_period(events);
  }
  return learner.full_snapshot();
}

void expect_snapshots_identical(const RobustSnapshot& served,
                                const RobustSnapshot& offline,
                                const std::vector<std::string>& names) {
  // Byte-identical models: the full hypothesis sets, their serialized
  // dLUB summaries, and the ingestion accounting must all agree.
  EXPECT_EQ(served.result.hypotheses, offline.result.hypotheses);
  EXPECT_EQ(matrix_to_string(served.result.lub(), names),
            matrix_to_string(offline.result.lub(), names));
  EXPECT_EQ(served.periods_seen, offline.periods_seen);
  EXPECT_EQ(served.periods_learned, offline.periods_learned);
  EXPECT_EQ(served.periods_quarantined, offline.periods_quarantined);
  EXPECT_EQ(served.repairs, offline.repairs);
  EXPECT_EQ(served.health, offline.health);
}

// The acceptance-criterion test: >= 8 sessions fed from >= 4 producer
// threads over a small worker pool; every session's final model equals the
// offline single-threaded learner's, for seeds 0..7.
TEST(SessionManagerConcurrency, EightSessionsFourProducersMatchOffline) {
  const std::size_t kSessions = 8;
  const std::size_t kProducers = 4;

  std::vector<Workload> workloads;
  for (std::uint64_t seed = 0; seed < kSessions; ++seed) {
    workloads.push_back(make_workload(seed));
  }

  ManagerConfig config;
  config.workers = 3;  // not a divisor of 8: shards share workers unevenly
  config.queue_capacity = 4;  // small: producers block, workers interleave
  SessionManager manager(config);

  std::vector<SessionId> ids;
  for (const Workload& w : workloads) {
    ids.push_back(manager.open_session(w.clean.task_names()));
  }

  // Producer p owns sessions {p, p + kProducers, ...}: one producer per
  // session (per-session submission order), many sessions per producer.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t s = p; s < kSessions; s += kProducers) {
        for (const auto& events : workloads[s].raw_periods) {
          const SubmitStatus status =
              manager.submit(ids[s], events, /*block=*/true);
          ASSERT_EQ(status, SubmitStatus::Accepted);
        }
      }
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    manager.drain(ids[s]);
    const QueryResult q = manager.query(ids[s]);
    expect_snapshots_identical(*q.snapshot, offline_reference(workloads[s]),
                               workloads[s].clean.task_names());
    const SessionStats stats = manager.stats(ids[s]);
    EXPECT_EQ(stats.accepted, workloads[s].raw_periods.size());
    EXPECT_EQ(stats.processed, workloads[s].raw_periods.size());
    EXPECT_EQ(stats.rejected, 0u);
  }
}

TEST(SessionManager, SingleSessionMatchesOfflineOnCleanTrace) {
  SimConfig cfg;
  cfg.seed = 7;
  const Trace gm = simulate_trace(gm_case_study_model(), 9, cfg);

  SessionManager manager(ManagerConfig{2, 16, {}});
  const SessionId id = manager.open_session(gm.task_names());
  for (const Period& p : gm.periods()) {
    ASSERT_EQ(manager.submit(id, p.to_events()), SubmitStatus::Accepted);
  }
  manager.drain(id);

  RobustOnlineLearner offline(gm.task_names(), RobustConfig{});
  for (const Period& p : gm.periods()) {
    (void)offline.observe_raw_period(p.to_events());
  }
  expect_snapshots_identical(*manager.query(id).snapshot,
                             offline.full_snapshot(), gm.task_names());
}

TEST(SessionManager, PublishedSnapshotsCarryNoPerPeriodHistory) {
  // With snapshot_interval = 1 a session publishes after every period; the
  // per-period frontier history would make each publication O(periods).
  SimConfig cfg;
  cfg.seed = 13;
  const Trace gm = simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);

  SessionManager manager(ManagerConfig{1, 64, {}});
  SessionConfig config;
  config.snapshot_interval = 1;
  const SessionId id = manager.open_session(gm.task_names(), config);
  RobustOnlineLearner offline(gm.task_names(), RobustConfig{});
  for (const Period& p : gm.periods()) {
    ASSERT_EQ(manager.submit(id, p.to_events()), SubmitStatus::Accepted);
    (void)offline.observe_raw_period(p.to_events());
    EXPECT_TRUE(manager.query(id).snapshot->result.stats.frontier_after_period.empty());
  }
  manager.drain(id);

  const RobustSnapshot& served = *manager.query(id).snapshot;
  const RobustSnapshot reference = offline.full_snapshot();
  // The learner keeps the history; only the published copy leaves it out.
  ASSERT_EQ(offline.learner().stats().frontier_after_period.size(), gm.num_periods());
  EXPECT_TRUE(served.result.stats.frontier_after_period.empty());
  EXPECT_EQ(served.periods_seen, gm.num_periods());
  EXPECT_EQ(served.periods_seen, reference.periods_seen);
  EXPECT_EQ(served.result.lub(), reference.result.lub());
  // The fixed-size counters still travel with the snapshot.
  EXPECT_EQ(served.result.stats.hypotheses_created,
            reference.result.stats.hypotheses_created);
  EXPECT_EQ(served.result.stats.merges, reference.result.stats.merges);
}

TEST(SessionManager, OverflowIsRejectedAndAccounted) {
  // One worker whose queue is blocked by a long-running period: capacity 1
  // fills, further non-blocking submits must overflow.
  ManagerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  SessionManager manager(config);

  SimConfig cfg;
  cfg.seed = 3;
  const Trace t = simulate_trace(gm_case_study_model(), 4, cfg);
  const SessionId id = manager.open_session(t.task_names());

  const std::vector<Event> period = t.periods()[0].to_events();
  std::size_t accepted = 0, overflowed = 0;
  // Flood far beyond capacity: the worker can drain some entries while we
  // push, but it cannot keep up with an in-memory loop of 200 submissions,
  // so at least one must bounce — and every bounce must be accounted.
  for (int i = 0; i < 200; ++i) {
    const SubmitStatus status = manager.submit(id, period, /*block=*/false);
    if (status == SubmitStatus::Accepted) {
      ++accepted;
    } else {
      ASSERT_EQ(status, SubmitStatus::Overflow);
      ++overflowed;
    }
  }
  EXPECT_GT(overflowed, 0u);
  manager.drain(id);
  const SessionStats stats = manager.stats(id);
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected, overflowed);
  EXPECT_EQ(stats.processed, accepted);
}

TEST(SessionManager, QueriesNeverBlockOnIngestionAndSeeAPrefixModel) {
  SimConfig cfg;
  cfg.seed = 11;
  const Trace t = simulate_trace(gm_case_study_model(), 6, cfg);
  SessionManager manager(ManagerConfig{1, 64, {}});
  const SessionId id = manager.open_session(t.task_names());

  // Query before any data: the published empty-model snapshot.
  const QueryResult empty = manager.query(id);
  EXPECT_EQ(empty.snapshot->periods_seen, 0u);
  EXPECT_EQ(empty.snapshot->result.hypotheses.size(), 1u);

  for (const Period& p : t.periods()) {
    ASSERT_EQ(manager.submit(id, p.to_events()), SubmitStatus::Accepted);
    // A query between submissions sees a model for SOME prefix of what was
    // accepted so far — never more than accepted, never torn.
    const QueryResult q = manager.query(id);
    EXPECT_LE(q.snapshot->periods_seen, manager.stats(id).accepted);
  }
  manager.drain(id);
  EXPECT_EQ(manager.query(id).snapshot->periods_seen, t.num_periods());
}

TEST(SessionManager, ProbeVerdicts) {
  SimConfig cfg;
  cfg.seed = 5;
  const Trace t = simulate_trace(gm_case_study_model(), 9, cfg);
  SessionManager manager(ManagerConfig{2, 32, {}});
  const SessionId id = manager.open_session(t.task_names());
  for (const Period& p : t.periods()) {
    ASSERT_EQ(manager.submit(id, p.to_events()), SubmitStatus::Accepted);
  }
  manager.drain(id);

  // A period the model was trained on conforms.
  const std::vector<Event> seen = t.periods()[0].to_events();
  EXPECT_EQ(manager.query(id, &seen).verdict, ProbeVerdict::Conforms);

  // A fabricated period running only one task violates the learned
  // requirements (the GM model's tasks never execute alone).
  std::vector<Event> lone{Event::task_start(0, TaskId{0u}),
                          Event::task_end(1000, TaskId{0u})};
  const QueryResult bad = manager.query(id, &lone);
  EXPECT_EQ(bad.verdict, ProbeVerdict::Violates);
  EXPECT_FALSE(bad.violations.empty());

  // Hopeless garbage is quarantined by the sanitizer: unverifiable.
  std::vector<Event> garbage{Event::task_end(5, TaskId{0u})};
  EXPECT_EQ(manager.query(id, &garbage).verdict, ProbeVerdict::Unverifiable);
}

TEST(SessionManager, ClosedSessionsRefuseSubmissions) {
  SessionManager manager(ManagerConfig{1, 8, {}});
  const SessionId id = manager.open_session({"a", "b"});
  EXPECT_TRUE(manager.close_session(id));
  EXPECT_EQ(manager.submit(id, {}), SubmitStatus::UnknownSession);
  EXPECT_EQ(manager.submit(SessionId{99u}, {}), SubmitStatus::UnknownSession);
  EXPECT_FALSE(manager.close_session(SessionId{99u}));
}

TEST(SessionManagerDurable, WalFailurePoisonsOnlyItsSession) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/bbmg_mgr_wal_failure";
  fs::remove_all(dir);
  ManagerConfig config{1, 8, durable::DurableConfig{dir, 1, 0}};
  SessionManager manager(config);
  const SessionId id = manager.open_session({"a", "b"});

  // A period whose WAL record would exceed the payload cap: append raises
  // inside process(); the worker must contain it — poisoning the session,
  // not std::terminate-ing the daemon.
  const std::size_t too_many =
      (durable::kMaxWalRecordPayload - 4) / kEncodedEventSize + 1;
  std::vector<Event> huge(too_many, Event::task_start(1, TaskId{0u}));
  ASSERT_EQ(manager.submit(id, std::move(huge)), SubmitStatus::Accepted);
  manager.drain(id);  // wakes via the failure instead of hanging forever
  EXPECT_EQ(manager.submit(id, {Event::task_start(1, TaskId{0u})}),
            SubmitStatus::Failed);

  // The worker survives: a fresh session on the same shard keeps learning.
  SimConfig cfg;
  cfg.seed = 4;
  const Trace t = simulate_trace(gm_case_study_model(), 3, cfg);
  const SessionId healthy = manager.open_session(t.task_names());
  for (const Period& p : t.periods()) {
    ASSERT_EQ(manager.submit(healthy, p.to_events()), SubmitStatus::Accepted);
  }
  manager.drain(healthy);
  EXPECT_EQ(manager.stats(healthy).processed, t.num_periods());
}

TEST(SessionManagerDurable, HugeRecoveredSessionIdIsIgnored) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/bbmg_mgr_huge_id";
  fs::remove_all(dir);
  const durable::DurableConfig dconfig{dir, 1, 0};

  // Forge valid durable state under an absurd session id (a mangled data
  // directory): honoring it would drive a multi-GB sessions_ resize.
  durable::SessionMeta meta;
  meta.session = (1u << 20) + 1;
  meta.task_names = {"a", "b"};
  meta.snapshot_interval = 1;
  {
    const RobustOnlineLearner learner(meta.task_names, meta.config);
    (void)durable::SessionStore::create(dconfig, meta, learner, {});
  }

  SessionManager manager(ManagerConfig{1, 8, dconfig});
  EXPECT_EQ(manager.num_sessions(), 0u);
  bool noted = false;
  for (const std::string& d : manager.recovery().diagnostics) {
    if (d.find("beyond the recoverable cap") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(SessionManager, StopFinishesQueuedWork) {
  SimConfig cfg;
  cfg.seed = 2;
  const Trace t = simulate_trace(gm_case_study_model(), 5, cfg);
  auto manager = std::make_unique<SessionManager>(ManagerConfig{2, 64, {}});
  const SessionId id = manager->open_session(t.task_names());
  for (const Period& p : t.periods()) {
    ASSERT_EQ(manager->submit(id, p.to_events()), SubmitStatus::Accepted);
  }
  manager->stop();  // must drain the queues before joining
  EXPECT_EQ(manager->stats(id).processed, t.num_periods());
  manager.reset();
}

}  // namespace
}  // namespace bbmg
