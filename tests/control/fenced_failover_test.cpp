// The control-plane acceptance matrix (DESIGN.md "Self-healing control
// plane"), against real SIGKILLed bbmg_served processes:
//
//   * Hands-off failover: primary SIGKILLed mid-stream, the embedded
//     monitor+controller promotes the follower and pushes the epoch-2 map;
//     the client finishes through map refresh alone — zero client-driven
//     failovers — and the final model is byte-identical to offline replay.
//   * Double failover with a fenced rejoin: the deposed primary restarts
//     from its stale map file, is re-admitted as follower (WAL-healed by
//     the new primary), provably rejects stale-epoch writes with Fenced,
//     and then survives the *promoted* node being SIGKILLed too.
//   * The supervisor's crash-loop breaker: a node whose port is taken
//     rapid-exits into the breaker and is flagged failed.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/supervisor.hpp"
#include "common/error.hpp"
#include "control/controller.hpp"
#include "monitor/monitor.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "support/gm_trace.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must point at the bbmg_served executable"
#endif

namespace bbmg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_control_" + name;
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

/// Aggressive detection knobs so the loop closes in well under a second
/// of wall time per transition.
monitor::MonitorConfig fast_monitor() {
  monitor::MonitorConfig cfg;
  cfg.listen = false;  // the tests drive tick() themselves
  cfg.scrape.request_timeout_ms = 250;
  cfg.scrape.stale_after_ms = 150;
  cfg.scrape.down_after_ms = 300;
  return cfg;
}

control::ControllerConfig fast_controller() {
  control::ControllerConfig cfg;
  cfg.confirm_ms = 200;
  cfg.cooldown_ms = 400;
  return cfg;
}

control::MapPush test_push() {
  RetryConfig retry;
  retry.max_retries = 1;
  retry.base_backoff_ms = 10;
  retry.max_backoff_ms = 50;
  retry.request_timeout_ms = 5000;
  return control::wire_map_push(retry);
}

/// Controller-only failover: the client may refresh its map but never
/// falls back to the follower on its own.
cluster::ClusterClientConfig hands_off_client() {
  cluster::ClusterClientConfig cfg;
  cfg.retry.max_retries = 3;
  cfg.retry.base_backoff_ms = 10;
  cfg.retry.max_backoff_ms = 100;
  cfg.retry.request_timeout_ms = 60000;
  cfg.retry.retry_budget_ms = 4000;
  cfg.retry.seed = 11;
  cfg.map_refresh_backoff_ms = 50;
  cfg.follower_fallback = false;
  return cfg;
}

/// Tick the monitor (which feeds the controller through the report sink)
/// until the controller's map reaches `epoch`; false on timeout.
bool drive_until_epoch(monitor::Monitor& mon, control::Controller& ctl,
                       std::uint64_t epoch) {
  for (int i = 0; i < 400 && ctl.epoch() < epoch; ++i) {
    mon.tick(monitor::Monitor::wall_ms());
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return ctl.epoch() >= epoch;
}

TEST(ControlPlane, HandsOffFailoverWithZeroClientFailovers) {
  const std::size_t kPeriods = 12;
  const std::size_t kKillAfter = 6;

  cluster::SupervisorConfig scfg;
  scfg.served_bin = BBMG_SERVED_BIN;
  scfg.root_dir = fresh_dir("hands_off");
  scfg.shards = 1;
  scfg.followers = true;
  cluster::ShardSupervisor supervisor(scfg);
  supervisor.start();
  const cluster::Endpoint follower = supervisor.map().shards[0].follower;

  monitor::Monitor mon(fast_monitor());
  mon.add_cluster_map(supervisor.map());
  control::Controller ctl(supervisor.map(), fast_controller(), test_push());
  std::vector<control::ControlAction> actions;
  mon.set_report_sink([&](const monitor::HealthReport& report,
                          std::uint64_t now_ms) {
    for (auto& action : ctl.on_report(report, now_ms)) {
      actions.push_back(action);
    }
  });

  const Trace trace = gm_trace(7, kPeriods);
  cluster::ClusterClient client(supervisor.map(), hands_off_client());
  const cluster::ClusterSessionRef ref =
      client.open_session("device-0", trace.task_names());
  for (std::size_t p = 0; p < kKillAfter; ++p) {
    client.send_period(ref, trace.periods()[p].to_events());
  }
  ASSERT_EQ(client.flush(ref), kKillAfter);

  // Chaos: the primary dies hard.  The control loop — not the client —
  // must notice and repair.
  supervisor.kill_primary(0);
  ASSERT_TRUE(drive_until_epoch(mon, ctl, 2))
      << "controller never promoted the follower";
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, control::ActionKind::Promote);
  EXPECT_EQ(actions[0].node, follower);
  EXPECT_EQ(ctl.map().shards[0].primary, follower);

  // The client's next sends burn the dead primary's retry budget, refresh
  // the map from the survivor, and land on the promoted node.
  for (std::size_t p = kKillAfter; p < kPeriods; ++p) {
    client.send_period(ref, trace.periods()[p].to_events());
  }
  EXPECT_EQ(client.flush(ref), kPeriods);  // zero acked periods lost
  const WireSnapshot snap = client.query(ref, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, kPeriods);
  EXPECT_TRUE(snap.lub == baseline_model(trace)) << "diverged after failover";

  // The whole point: the client never drove the failover itself.
  EXPECT_EQ(client.failovers(), 0u);
  EXPECT_EQ(client.map().epoch, 2u);
  EXPECT_EQ(supervisor.terminate_all(), 0);
}

TEST(ControlPlane, DoubleFailoverWithFencedRejoinStaysByteIdentical) {
  const std::size_t kPeriods = 18;
  const std::size_t kFirstLeg = 6;   // on the original primary A
  const std::size_t kSecondLeg = 12; // through the promoted node B

  cluster::SupervisorConfig scfg;
  scfg.served_bin = BBMG_SERVED_BIN;
  scfg.root_dir = fresh_dir("double");
  scfg.shards = 1;
  scfg.followers = true;
  cluster::ShardSupervisor supervisor(scfg);
  supervisor.start();
  const cluster::Endpoint node_a = supervisor.map().shards[0].primary;
  const cluster::Endpoint node_b = supervisor.map().shards[0].follower;

  monitor::Monitor mon(fast_monitor());
  mon.add_cluster_map(supervisor.map());
  control::Controller ctl(supervisor.map(), fast_controller(), test_push());
  std::vector<control::ControlAction> actions;
  mon.set_report_sink([&](const monitor::HealthReport& report,
                          std::uint64_t now_ms) {
    for (auto& action : ctl.on_report(report, now_ms)) {
      actions.push_back(action);
    }
  });

  const Trace trace = gm_trace(3, kPeriods);
  cluster::ClusterClient client(supervisor.map(), hands_off_client());
  const cluster::ClusterSessionRef ref =
      client.open_session("device-0", trace.task_names());
  for (std::size_t p = 0; p < kFirstLeg; ++p) {
    client.send_period(ref, trace.periods()[p].to_events());
  }
  ASSERT_EQ(client.flush(ref), kFirstLeg);

  // Leg 1: SIGKILL A; the controller promotes B (epoch 2).
  supervisor.kill_primary(0);
  ASSERT_TRUE(drive_until_epoch(mon, ctl, 2)) << "no promotion of B";
  for (std::size_t p = kFirstLeg; p < kSecondLeg; ++p) {
    client.send_period(ref, trace.periods()[p].to_events());
  }
  ASSERT_EQ(client.flush(ref), kSecondLeg);
  EXPECT_EQ(client.map().epoch, 2u);

  // Leg 2: A restarts from its STALE epoch-1 map file (the supervisor
  // never rewrites it) still believing it is the primary; the controller
  // re-admits it as B's follower under epoch 3, and B heals it from the
  // WAL.
  supervisor.restart_primary(0);
  ASSERT_TRUE(drive_until_epoch(mon, ctl, 3)) << "A was never re-admitted";
  ASSERT_GE(actions.size(), 2u);
  EXPECT_EQ(actions[1].kind, control::ActionKind::Readmit);
  EXPECT_EQ(actions[1].node, node_a);
  EXPECT_EQ(ctl.map().shards[0].primary, node_b);
  EXPECT_EQ(ctl.map().shards[0].follower, node_a);

  // Replication must actually heal: a flush through B only returns once
  // the re-admitted follower holds every period too.
  EXPECT_EQ(client.flush(ref), kSecondLeg);
  // Pick up the epoch-3 map so the client knows A exists as a fallback
  // source for later refreshes.
  EXPECT_TRUE(client.refresh_map());
  EXPECT_EQ(client.map().epoch, 3u);

  // The fence: A rejoined, but a write stamped with the regime it used to
  // lead (epoch 1 — or the epoch-2 regime it never joined) must be
  // rejected with Fenced, no matter that A is alive and serving.
  {
    ServeClient stale;
    stale.connect(node_a.host, node_a.port);
    stale.set_write_epoch(1);
    EXPECT_THROW((void)stale.open_cluster_session("device-0",
                                                  trace.task_names()),
                 FencedError);
    stale.set_write_epoch(2);
    EXPECT_THROW((void)stale.open_cluster_session("device-0",
                                                  trace.task_names()),
                 FencedError);
  }

  // Leg 3: the promoted node B dies too.  The healed A is promoted back
  // (epoch 4) and the client completes the stream on it.
  supervisor.kill_follower(0);  // B was spawned as the follower node
  ASSERT_TRUE(drive_until_epoch(mon, ctl, 4)) << "no promotion back to A";
  EXPECT_EQ(ctl.map().shards[0].primary, node_a);
  for (std::size_t p = kSecondLeg; p < kPeriods; ++p) {
    client.send_period(ref, trace.periods()[p].to_events());
  }
  EXPECT_EQ(client.flush(ref), kPeriods);
  const WireSnapshot snap = client.query(ref, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, kPeriods);
  EXPECT_TRUE(snap.lub == baseline_model(trace))
      << "diverged across the double failover";
  EXPECT_EQ(client.failovers(), 0u);
  EXPECT_EQ(client.map().epoch, 4u);
  EXPECT_EQ(supervisor.terminate_all(), 0);
}

TEST(ControlPlane, CrashLoopBreakerFlagsANodeThatCannotStart) {
  cluster::SupervisorConfig scfg;
  scfg.served_bin = BBMG_SERVED_BIN;
  scfg.root_dir = fresh_dir("breaker");
  scfg.shards = 1;
  scfg.followers = false;
  scfg.restart_base_backoff_ms = 5;
  scfg.restart_max_backoff_ms = 20;
  scfg.restart_max_rapid_exits = 3;
  cluster::ShardSupervisor supervisor(scfg);
  supervisor.start();
  const std::uint16_t port = supervisor.map().shards[0].primary.port;
  supervisor.kill_primary(0);
  EXPECT_FALSE(supervisor.primary_failed(0));

  // Squat the node's port so every respawn rapid-exits before its banner.
  const net::Listener squatter = net::listen_tcp(port, 1);
  EXPECT_THROW(supervisor.restart_primary(0), Error);
  EXPECT_TRUE(supervisor.primary_failed(0));
  EXPECT_FALSE(supervisor.primary_alive(0));
  // The breaker latches: further restarts refuse instantly.
  EXPECT_THROW(supervisor.restart_primary(0), Error);
  net::close_socket(squatter.fd);

  (void)supervisor.terminate_all();
}

}  // namespace
}  // namespace bbmg
