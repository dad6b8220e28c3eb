// The tentpole acceptance test: a real multi-process cluster (2 shards,
// each with a follower, spawned via ShardSupervisor) serves 8 sessions
// routed by key; one shard's primary is SIGKILLed mid-stream; clients
// fail over to the follower and finish their streams; every final model
// must be byte-identical to an uninterrupted single-learner run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/supervisor.hpp"
#include "common/error.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/client.hpp"
#include "serve/resilient_client.hpp"
#include "support/gm_trace.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must point at the bbmg_served executable"
#endif

namespace bbmg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_failover_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The model an uninterrupted learner (server defaults) produces.
DependencyMatrix baseline_model(const Trace& trace) {
  const SessionConfig cfg = OpenSessionMsg{}.to_session_config();
  RobustOnlineLearner learner(trace.task_names(), cfg.robust);
  for (const Period& p : trace.periods()) {
    learner.observe_raw_period(p.to_events());
  }
  return learner.full_snapshot().result.lub();
}

RetryConfig failover_retries(std::uint64_t seed) {
  RetryConfig config;
  // Small on purpose: burn through the budget fast so the typed
  // RetriesExhausted (and with it the follower switch) fires promptly.
  // The switch is triggered by instant connection-refused errors from the
  // dead primary, so the per-request deadline can stay generous: it only
  // gates live-but-slow reads (a follower draining 8 sessions on a TSan
  // build needs well over 5 s).
  config.max_retries = 3;
  config.base_backoff_ms = 5;
  config.max_backoff_ms = 50;
  config.request_timeout_ms = 60000;
  config.seed = seed;
  return config;
}

TEST(ClusterFailover, SigkilledPrimaryFailsOverByteIdentically) {
  const std::size_t kSessions = 8;
  const std::size_t kPeriods = 16;
  const std::size_t kKillAfter = 8;  // periods sent before the SIGKILL

  cluster::SupervisorConfig scfg;
  scfg.served_bin = BBMG_SERVED_BIN;
  scfg.root_dir = fresh_dir("chaos");
  scfg.shards = 2;
  scfg.followers = true;
  cluster::ShardSupervisor supervisor(scfg);
  supervisor.start();
  {

    cluster::ClusterClient client(supervisor.map(), failover_retries(99));
    std::vector<std::string> keys;
    std::vector<Trace> traces;
    std::vector<cluster::ClusterSessionRef> refs;
    bool on_each_shard[2] = {false, false};
    for (std::size_t i = 0; i < kSessions; ++i) {
      keys.push_back("device-" + std::to_string(i));
      traces.push_back(gm_trace(i, kPeriods));
      refs.push_back(client.open_session(keys[i], traces[i].task_names()));
      on_each_shard[refs[i].shard] = true;
    }
    // The rendezvous spread must actually exercise both shards, or the
    // kill would only prove single-shard behaviour.
    ASSERT_TRUE(on_each_shard[0] && on_each_shard[1]);

    for (std::size_t i = 0; i < kSessions; ++i) {
      for (std::size_t p = 0; p < kKillAfter; ++p) {
        client.send_period(refs[i], traces[i].periods()[p].to_events());
      }
    }

    // Chaos: the shard serving key 0 loses its primary, hard.
    const std::size_t victim = refs[0].shard;
    supervisor.kill_primary(victim);

    for (std::size_t i = 0; i < kSessions; ++i) {
      for (std::size_t p = kKillAfter; p < kPeriods; ++p) {
        client.send_period(refs[i], traces[i].periods()[p].to_events());
      }
    }

    std::size_t failed_over_sessions = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      // Every period must be durable wherever the session now lives.
      EXPECT_EQ(client.flush(refs[i]), kPeriods) << keys[i];
      const WireSnapshot snap = client.query(refs[i], /*drain=*/true);
      EXPECT_EQ(snap.periods_seen, kPeriods) << keys[i];
      const DependencyMatrix want = baseline_model(traces[i]);
      EXPECT_TRUE(snap.lub == want)
          << keys[i] << " diverged after the failover";
      EXPECT_EQ(snap.weight, want.weight()) << keys[i];
      if (refs[i].shard == victim) ++failed_over_sessions;
    }
    EXPECT_GE(client.failovers(), 1u);
    EXPECT_GT(failed_over_sessions, 0u);
    EXPECT_FALSE(supervisor.primary_alive(victim));

    // The surviving nodes drain cleanly.
    EXPECT_EQ(supervisor.terminate_all(), 0);
  }
}

TEST(ClusterFailover, NewSessionsOpenOnTheFollowerAfterTheKill) {
  cluster::SupervisorConfig scfg;
  scfg.served_bin = BBMG_SERVED_BIN;
  scfg.root_dir = fresh_dir("open_after_kill");
  scfg.shards = 1;
  scfg.followers = true;
  cluster::ShardSupervisor supervisor(scfg);
  supervisor.start();

  const Trace trace = gm_trace(42, 10);
  cluster::ClusterClient client(supervisor.map(), failover_retries(7));
  const cluster::ClusterSessionRef before =
      client.open_session("pre-kill", trace.task_names());
  for (const Period& p : trace.periods()) {
    client.send_period(before, p.to_events());
  }
  EXPECT_EQ(client.flush(before), trace.num_periods());

  supervisor.kill_primary(0);

  // A fresh key on the dead shard: open fails over and the follower —
  // which owns the shard's keys too — serves it without a redirect.
  const cluster::ClusterSessionRef after =
      client.open_session("post-kill", trace.task_names());
  EXPECT_EQ(after.shard, 0u);
  for (const Period& p : trace.periods()) {
    client.send_period(after, p.to_events());
  }
  EXPECT_EQ(client.flush(after), trace.num_periods());
  const WireSnapshot snap = client.query(after, /*drain=*/true);
  EXPECT_TRUE(snap.lub == baseline_model(trace));
  EXPECT_GE(client.failovers(), 1u);
  (void)supervisor.terminate_all();
}

TEST(ClusterFailover, RoutingIsStableAcrossClientInstances) {
  // Two independent clients over the same map must agree on placement —
  // the shared-hash contract that makes Redirects mean "stale map" only.
  cluster::ClusterMap map = cluster::ClusterMap::parse(
      "epoch 1\n"
      "shard 127.0.0.1:7227 127.0.0.1:7327\n"
      "shard 127.0.0.1:7228\n"
      "shard 127.0.0.1:7229\n");
  cluster::ClusterClient a(map);
  cluster::ClusterClient b(map);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "agree-" + std::to_string(i);
    EXPECT_EQ(a.shard_for(key), b.shard_for(key)) << key;
    EXPECT_EQ(a.shard_for(key), map.shard_for(key)) << key;
  }
}

}  // namespace
}  // namespace bbmg
