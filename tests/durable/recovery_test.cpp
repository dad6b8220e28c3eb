// Startup recovery: snapshot + WAL-tail replay lands on byte-identical
// learner state, torn tails are truncated, corrupt files are quarantined
// (never fatal), and a stale WAL left by a crash between snapshot and
// rotate is replaced instead of corrupting the sequence.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "durable/recovery.hpp"
#include "durable/snapshot.hpp"
#include "durable/store.hpp"
#include "durable/wal.hpp"
#include "support/gm_trace.hpp"

namespace bbmg::durable {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_recovery_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> learner_bytes(const RobustOnlineLearner& l) {
  std::vector<std::uint8_t> out;
  l.encode_state(out);
  return out;
}

SessionMeta meta_for(const Trace& trace, std::uint32_t session = 0) {
  SessionMeta meta;
  meta.session = session;
  meta.task_names = trace.task_names();
  meta.snapshot_interval = 1;
  return meta;
}

/// Drive a store + learner the way LearningSession::process does: WAL
/// append, stats, learn, compact when due.  Returns the learner state
/// after the last period.
struct DrivenSession {
  RobustOnlineLearner learner;
  StreamingTraceStats stats;
  std::unique_ptr<SessionStore> store;
  std::uint64_t seq{0};

  DrivenSession(const DurableConfig& config, const SessionMeta& meta)
      : learner(meta.task_names, meta.config),
        store(SessionStore::create(config, meta, learner, {})) {}

  void apply(const std::vector<Event>& events) {
    ++seq;
    store->append_period(seq, events);
    stats.observe_events(events);
    learner.observe_raw_period(events);
    if (store->should_compact(seq)) {
      store->write_snapshot(seq, learner, stats.summary());
    }
  }
};

TEST(Recovery, FreshDirectoryRecoversNothingAndIsCreated) {
  const std::string dir = fresh_dir("fresh");
  DurableConfig config{dir, 32, 256};
  const RecoveryReport report = recover_all(config);
  EXPECT_TRUE(report.sessions.empty());
  EXPECT_TRUE(report.quarantined_files.empty());
  EXPECT_TRUE(fs::exists(dir));
}

TEST(Recovery, WalReplayRebuildsByteIdenticalState) {
  const std::string dir = fresh_dir("replay");
  DurableConfig config{dir, /*fsync_every=*/4, /*snapshot_every=*/0};
  const Trace trace = gm_trace(3, 10);

  RobustOnlineLearner baseline(trace.task_names(), RobustConfig{});
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) {
      const std::vector<Event> events = p.to_events();
      session.apply(events);
      baseline.observe_raw_period(events);
    }
  }  // simulated crash: no shutdown snapshot

  RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  RecoveredSession& rec = report.sessions[0];
  EXPECT_EQ(rec.seq, 10u);
  EXPECT_EQ(rec.replayed, 10u);  // snapshot at 0, everything from the WAL
  EXPECT_EQ(rec.stats.periods, 10u);
  EXPECT_EQ(learner_bytes(rec.learner), learner_bytes(baseline));
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.torn_tails, 0u);
}

TEST(Recovery, CompactionShortensReplayWithoutChangingState) {
  const std::string dir = fresh_dir("compact");
  DurableConfig config{dir, 1, /*snapshot_every=*/4};
  const Trace trace = gm_trace(5, 10);

  RobustOnlineLearner baseline(trace.task_names(), RobustConfig{});
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) {
      session.apply(p.to_events());
      baseline.observe_raw_period(p.to_events());
    }
  }

  RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  // Snapshots at 4 and 8; only 9 and 10 replay from the WAL.
  EXPECT_EQ(report.sessions[0].seq, 10u);
  EXPECT_EQ(report.sessions[0].replayed, 2u);
  EXPECT_EQ(learner_bytes(report.sessions[0].learner),
            learner_bytes(baseline));
  // Pruning kept at most kSnapshotsToKeep snapshot files.
  std::size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/session-0")) {
    if (entry.path().extension() == ".bbsn") ++snapshots;
  }
  EXPECT_LE(snapshots, kSnapshotsToKeep);
}

TEST(Recovery, TornWalTailIsTruncatedAndSessionContinues) {
  const std::string dir = fresh_dir("torn");
  DurableConfig config{dir, 1, 0};
  const Trace trace = gm_trace(7, 6);
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) session.apply(p.to_events());
  }
  const std::string wal_path = dir + "/session-0/" + kWalFilename;
  truncate_file(wal_path, fs::file_size(wal_path) - 5);

  RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].seq, 5u);  // the torn 6th period is gone
  EXPECT_EQ(report.torn_tails, 1u);
  EXPECT_FALSE(report.diagnostics.empty());

  // The store recovery handed back keeps appending where replay stopped.
  report.sessions[0].store->append_period(6, trace.periods()[5].to_events());
  report.sessions[0].store->flush();
  const RecoveryReport again = recover_all(config);
  ASSERT_EQ(again.sessions.size(), 1u);
  EXPECT_EQ(again.sessions[0].seq, 6u);
  EXPECT_EQ(again.torn_tails, 0u);
}

TEST(Recovery, CorruptNewestSnapshotFallsBackAndQuarantines) {
  const std::string dir = fresh_dir("fallback");
  DurableConfig config{dir, 1, /*snapshot_every=*/4};
  const Trace trace = gm_trace(9, 8);  // snapshots at 4 and 8
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) session.apply(p.to_events());
  }
  // Corrupt the newest snapshot (seq 8).
  const std::string newest = dir + "/session-0/" + snapshot_filename(8);
  ASSERT_TRUE(fs::exists(newest));
  std::vector<std::uint8_t> bytes = read_file_bytes(newest);
  bytes[bytes.size() / 2] ^= 0xff;
  write_file_atomic(newest, bytes);

  const RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  // Fell back to snap-4.  The WAL was rotated to base 8 at the last
  // compaction, so it cannot extend snap-4 (a gap) and is quarantined too.
  EXPECT_EQ(report.sessions[0].seq, 4u);
  EXPECT_GE(report.quarantined_files.size(), 2u);
  EXPECT_FALSE(report.diagnostics.empty());
  EXPECT_TRUE(fs::exists(dir + "/quarantine"));

  // The recovered session is fully serviceable: appends + re-recovery.
  report.sessions[0].store->append_period(5, trace.periods()[4].to_events());
  report.sessions[0].store->flush();
  const RecoveryReport again = recover_all(config);
  ASSERT_EQ(again.sessions.size(), 1u);
  EXPECT_EQ(again.sessions[0].seq, 5u);
}

TEST(Recovery, BadWalHeaderIsQuarantinedSnapshotSurvives) {
  const std::string dir = fresh_dir("badwal");
  DurableConfig config{dir, 1, /*snapshot_every=*/3};
  const Trace trace = gm_trace(2, 6);  // snapshots at 3 and 6
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) session.apply(p.to_events());
  }
  const std::string wal_path = dir + "/session-0/" + kWalFilename;
  std::vector<std::uint8_t> bytes = read_file_bytes(wal_path);
  bytes[0] ^= 0xff;
  write_file_atomic(wal_path, bytes);

  const RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].seq, 6u);  // snapshot alone carries it
  EXPECT_EQ(report.quarantined_files.size(), 1u);
}

TEST(Recovery, AllSnapshotsCorruptDropsTheSession) {
  const std::string dir = fresh_dir("dropped");
  DurableConfig config{dir, 1, 0};
  const Trace trace = gm_trace(4, 3);
  {
    DrivenSession session(config, meta_for(trace));
    for (const Period& p : trace.periods()) session.apply(p.to_events());
  }
  for (const auto& entry : fs::directory_iterator(dir + "/session-0")) {
    if (entry.path().extension() != ".bbsn") continue;
    std::vector<std::uint8_t> bytes = read_file_bytes(entry.path().string());
    bytes[0] ^= 0xff;
    write_file_atomic(entry.path().string(), bytes);
  }

  const RecoveryReport report = recover_all(config);
  EXPECT_TRUE(report.sessions.empty());
  EXPECT_GE(report.quarantined_files.size(), 2u);  // snapshot(s) + WAL
  EXPECT_FALSE(report.diagnostics.empty());
}

TEST(Recovery, StaleWalIsReplacedNotExtended) {
  const std::string dir = fresh_dir("stale");
  DurableConfig config{dir, 1, 0};
  const Trace trace = gm_trace(6, 4);
  RobustOnlineLearner full(trace.task_names(), RobustConfig{});
  StreamingTraceStats full_stats;
  {
    DrivenSession session(config, meta_for(trace));
    // WAL holds seqs 1..2 only.
    for (std::size_t i = 0; i < 2; ++i) {
      session.apply(trace.periods()[i].to_events());
    }
  }
  for (const Period& p : trace.periods()) {
    full_stats.observe_events(p.to_events());
    full.observe_raw_period(p.to_events());
  }
  // Simulate a crash between "snapshot at 4 durably renamed" and "WAL
  // rotated": hand-write snap-4 while the WAL still ends at seq 2.
  write_file_atomic(dir + "/session-0/" + snapshot_filename(4),
                    encode_snapshot(meta_for(trace), 4, full_stats.summary(),
                                    full));

  RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].seq, 4u);
  EXPECT_EQ(report.sessions[0].replayed, 0u);
  bool mentioned = false;
  for (const std::string& d : report.diagnostics) {
    if (d.find("stale") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned);

  // Appending seq 5 through the replaced WAL must survive re-recovery
  // (the old stale log would have made the tail look torn).
  report.sessions[0].store->append_period(5, trace.periods()[0].to_events());
  report.sessions[0].store->flush();
  const RecoveryReport again = recover_all(config);
  ASSERT_EQ(again.sessions.size(), 1u);
  EXPECT_EQ(again.sessions[0].seq, 5u);
  EXPECT_EQ(again.torn_tails, 0u);
}

TEST(Recovery, MultipleSessionsRecoverIndependently) {
  const std::string dir = fresh_dir("multi");
  DurableConfig config{dir, 1, 0};
  const Trace trace = gm_trace(8, 5);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::uint32_t id = 0; id < 3; ++id) {
    DrivenSession session(config, meta_for(trace, id));
    RobustOnlineLearner baseline(trace.task_names(), RobustConfig{});
    for (std::size_t i = 0; i <= id + 1; ++i) {
      session.apply(trace.periods()[i].to_events());
      baseline.observe_raw_period(trace.periods()[i].to_events());
    }
    want.push_back(learner_bytes(baseline));
  }

  const RecoveryReport report = recover_all(config);
  ASSERT_EQ(report.sessions.size(), 3u);
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(report.sessions[id].meta.session, id);
    EXPECT_EQ(report.sessions[id].seq, id + 2u);
    EXPECT_EQ(learner_bytes(report.sessions[id].learner), want[id]);
  }
}

TEST(Recovery, NonSessionEntriesAreIgnored) {
  const std::string dir = fresh_dir("ignore");
  DurableConfig config{dir, 1, 0};
  fs::create_directories(dir + "/not-a-session");
  fs::create_directories(dir + "/session-abc");
  write_file_atomic(dir + "/stray.txt", {0x41});
  const RecoveryReport report = recover_all(config);
  EXPECT_TRUE(report.sessions.empty());
}

}  // namespace
}  // namespace bbmg::durable
