// The exact work counts perfbench prints for its `--trace 0` runs at seed
// 9973, pinned as goldens.  Counts are machine-independent: a change that
// keeps the learned models, the wire bytes and the WAL bytes the same keeps
// every line here the same, whatever it does to speed.
//
// perfbench/driver.cpp is the benchmark of record and is not linked here.
// The inputs are regenerated through src/ APIs by mirroring its
// derive_seed, extend_stream, period_frames, wal_bytes and record_counts
// (its gm_trace is support/gm_trace.hpp's); a golden mismatch means either
// the program's work changed or those copies drifted apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/online_learner.hpp"
#include "durable/store.hpp"
#include "durable/wal.hpp"
#include "gen/gm_case_study.hpp"
#include "robust/fault_injector.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/protocol.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

namespace fs = std::filesystem;

using Counts = std::map<std::string, std::uint64_t>;

constexpr std::uint64_t kSeed = 9973;
/// Distinct served session streams: perfbench's 4 sessions pair up on its
/// 2 daemon workers, and sessions 2k and 2k+1 replay the same stream.
constexpr std::size_t kDistinctStreams = 2;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream;
  return splitmix64(state);
}

/// The first `traces` GM traces of distinct stream `k`, corrupted at
/// `fault_rate` when it is non-zero.
std::vector<std::vector<Event>> stream_prefix(std::size_t k, std::size_t traces,
                                              double fault_rate) {
  std::vector<std::vector<Event>> stream;
  for (std::uint64_t c = 0; c < traces; ++c) {
    const std::uint64_t stream_id = 1'000'000 * (k + 1) + c;
    const Trace clean = gm_trace(derive_seed(kSeed, stream_id), kGmCaseStudyPeriods);
    std::vector<std::vector<Event>> raw = to_raw_periods(clean);
    if (fault_rate > 0.0) {
      FaultInjector injector(FaultSpec::uniform(
          fault_rate, derive_seed(kSeed, stream_id + 500'000)));
      raw = injector.corrupt(clean).periods;
    }
    for (auto& p : raw) stream.push_back(std::move(p));
  }
  return stream;
}

RobustConfig robust_config(std::size_t bound) {
  OpenSessionMsg open;
  open.bound = static_cast<std::uint32_t>(bound);
  open.policy = SanitizePolicy::Repair;
  return open.to_session_config().robust;
}

void add_stats(const LearnStats& s, Counts& c) {
  c["core.hypotheses_created"] += s.hypotheses_created;
  c["core.merges"] += s.merges;
  c["core.unexplained_messages"] += s.unexplained_messages;
  c["core.peak_hypotheses"] = std::max<std::uint64_t>(c["core.peak_hypotheses"],
                                                      s.peak_hypotheses);
}

/// Bytes ServeClient::send_period writes for one untraced period.
std::uint64_t period_wire_bytes(const std::vector<Event>& events) {
  std::vector<std::uint8_t> bytes;
  EventsMsg msg;
  msg.events = events;
  append_frame(bytes, msg.to_frame());
  append_frame(bytes, EndPeriodMsg{}.to_frame());
  return bytes.size();
}

/// Size of the WAL a durable session writes for `periods` (no compaction).
std::uint64_t wal_bytes(const std::vector<std::string>& names, const RobustConfig& config,
                        const std::vector<std::vector<Event>>& periods,
                        const std::string& dir) {
  fs::remove_all(dir);
  durable::DurableConfig dc;
  dc.dir = dir;
  dc.snapshot_every = 0;
  durable::SessionMeta meta;
  meta.task_names = names;
  meta.config = config;
  meta.snapshot_interval = 1;
  {
    const RobustOnlineLearner empty(names, config);
    auto store = durable::SessionStore::create(dc, meta, empty, {});
    for (std::size_t i = 0; i < periods.size(); ++i) store->append_period(i + 1, periods[i]);
    (void)store->flush();
  }
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename() == durable::kWalFilename) {
      total += entry.file_size();
    }
  }
  fs::remove_all(dir);
  return total;
}

/// A served workload's counts: a fresh RobustOnlineLearner per GM trace of
/// the first `traces` traces of each distinct stream, plus the wire and
/// WAL bytes of those periods.
Counts served_counts(std::size_t bound, double fault_rate, std::size_t traces,
                     const std::string& wal_dir) {
  const std::vector<std::string> names = gm_trace(1, 1).task_names();
  const RobustConfig config = robust_config(bound);
  std::vector<std::vector<Event>> periods;
  for (std::size_t k = 0; k < kDistinctStreams; ++k) {
    for (auto& p : stream_prefix(k, traces, fault_rate)) periods.push_back(std::move(p));
  }
  Counts c;
  for (std::size_t from = 0; from < periods.size(); from += kGmCaseStudyPeriods) {
    RobustOnlineLearner learner(names, config);
    for (std::size_t k = from; k < from + kGmCaseStudyPeriods; ++k) {
      (void)learner.observe_raw_period(periods[k]);
    }
    add_stats(learner.learner().stats(), c);
    c["robust.repairs"] += learner.repairs();
    c["robust.quarantined"] += learner.periods_quarantined();
  }
  for (const auto& p : periods) c["serve.wire_bytes"] += period_wire_bytes(p);
  c["durable.wal_bytes"] = wal_bytes(names, config, periods, wal_dir);
  return c;
}

TEST(ExactCounts, OfflineGmB64) {
  // A fresh bound-64 OnlineLearner on each of the 4 traces every run
  // learns, whatever the machine speed.  The learnings are independent and
  // bound 64 is the learner's slowest setting here, so they run side by
  // side: the test then takes about as long as one trace.
  const std::size_t tasks = gm_case_study_model().num_tasks();
  std::vector<std::future<LearnStats>> runs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    runs.push_back(std::async(std::launch::async, [i, tasks] {
      const Trace trace = gm_trace(derive_seed(kSeed, 100 + i), kGmCaseStudyPeriods);
      OnlineLearner learner(tasks, OnlineConfig{64});
      for (const Period& p : trace.periods()) learner.observe_period(p);
      return learner.stats();
    }));
  }
  Counts c;
  for (auto& run : runs) add_stats(run.get(), c);
  const Counts golden = {
      {"core.hypotheses_created", 754896},
      {"core.merges", 589069},
      {"core.peak_hypotheses", 64},
      {"core.unexplained_messages", 0},
  };
  EXPECT_EQ(c, golden);
}

TEST(ExactCounts, ServedQueryB16) {
  const Counts golden = {
      {"core.hypotheses_created", 381802},
      {"core.merges", 318688},
      {"core.peak_hypotheses", 16},
      {"core.unexplained_messages", 0},
      {"robust.repairs", 0},
      {"robust.quarantined", 0},
      {"serve.wire_bytes", 153640},
      {"durable.wal_bytes", 151498},
  };
  EXPECT_EQ(served_counts(16, 0.0, 4, ::testing::TempDir() + "/bbmg_counts_query"),
            golden);
}

TEST(ExactCounts, ServedIngestB1) {
  const Counts golden = {
      {"core.hypotheses_created", 45295},
      {"core.merges", 37757},
      {"core.peak_hypotheses", 1},
      {"core.unexplained_messages", 2703},
      {"robust.repairs", 256},
      {"robust.quarantined", 106},
      {"serve.wire_bytes", 617511},
      {"durable.wal_bytes", 608889},
  };
  EXPECT_EQ(served_counts(1, 0.01, 16, ::testing::TempDir() + "/bbmg_counts_ingest"),
            golden);
}

}  // namespace
}  // namespace bbmg
