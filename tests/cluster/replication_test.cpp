// In-process replication tests: a primary Server with a Replicator
// shipping to a live follower Server (byte-identical replica, acked
// high-water marks), the min(local, replicated) Resume clamp when the
// follower is unreachable, key routing with Redirect answers, and the
// idempotent OpenSessionAs mirror primitive.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "cluster/cluster_map.hpp"
#include "cluster/replicator.hpp"
#include "common/error.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_repl_" + name;
  fs::remove_all(dir);
  return dir;
}

ServerConfig durable_config(const std::string& dir) {
  ServerConfig config;
  config.manager.workers = 2;
  config.manager.durable.dir = dir;
  config.manager.durable.fsync_every = 1;
  return config;
}

/// Map with one shard: a placeholder primary endpoint (never dialed by
/// the replicator) and the given follower.
cluster::ClusterMap one_shard_map(std::uint16_t follower_port) {
  cluster::ClusterMap map;
  map.epoch = 1;
  cluster::ClusterShard shard;
  shard.primary = cluster::Endpoint{"127.0.0.1", 1};
  shard.follower = cluster::Endpoint{"127.0.0.1", follower_port};
  map.shards.push_back(shard);
  return map;
}

cluster::ReplicatorConfig fast_replication() {
  cluster::ReplicatorConfig config;
  config.ack_every = 4;
  config.retry.max_retries = 2;
  config.retry.base_backoff_ms = 1;
  config.retry.max_backoff_ms = 10;
  config.retry.request_timeout_ms = 2000;
  return config;
}

TEST(Replication, FollowerHoldsAByteIdenticalDurableReplica) {
  Server follower(durable_config(fresh_dir("byte_identical_f")));
  follower.start();

  Server primary(durable_config(fresh_dir("byte_identical_p")));
  auto replicator = std::make_shared<cluster::Replicator>(
      primary.manager(), one_shard_map(follower.port()), 0,
      /*follower_role=*/false, fast_replication());
  ASSERT_TRUE(replicator->shipping());
  primary.set_cluster(replicator);
  replicator->start();
  primary.start();

  const Trace trace = gm_trace(11, 20);
  ResilientClient client;
  client.connect("127.0.0.1", primary.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  for (const Period& p : trace.periods()) {
    client.send_period(session, p.to_events());
  }
  // flush() resolves via Resume, and a replicating primary only acks
  // min(local, follower-acked): a full ack here PROVES the follower holds
  // (and fsynced) every period.
  EXPECT_EQ(client.flush(session), trace.num_periods());
  EXPECT_GE(replicator->replicated(session), trace.num_periods());
  EXPECT_FALSE(replicator->stalled(session));

  // Same id, same durable mark, byte-identical model on the follower.
  ServeClient direct;
  direct.connect("127.0.0.1", follower.port());
  EXPECT_EQ(direct.resume(session), trace.num_periods());
  const WireSnapshot from_follower = direct.query(session, /*drain=*/true);
  const WireSnapshot from_primary = client.query(session, /*drain=*/true);
  EXPECT_EQ(from_follower.periods_seen, trace.num_periods());
  EXPECT_TRUE(from_follower.lub == from_primary.lub);
  EXPECT_EQ(from_follower.weight, from_primary.weight);

  primary.stop();
  replicator->stop();
  follower.stop();
}

TEST(Replication, ResumeAcksOnlyWhatTheFollowerAlsoHolds) {
  // Follower endpoint is a dead port: the first ship attempt stalls the
  // session, and Resume must then answer 0 — never the local mark — so
  // clients keep every period buffered for a later failover.
  const net::Listener dead = net::listen_tcp(0, 1);
  const std::uint16_t dead_port = dead.port;
  net::close_socket(dead.fd);

  Server primary(durable_config(fresh_dir("clamp_p")));
  cluster::ReplicatorConfig rcfg = fast_replication();
  rcfg.retry.max_retries = 0;
  rcfg.retry.request_timeout_ms = 200;  // bounds the Resume wait
  auto replicator = std::make_shared<cluster::Replicator>(
      primary.manager(), one_shard_map(dead_port), 0,
      /*follower_role=*/false, rcfg);
  primary.set_cluster(replicator);
  replicator->start();
  primary.start();

  const Trace trace = gm_trace(3, 4);
  ResilientClient client;
  client.connect("127.0.0.1", primary.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  for (const Period& p : trace.periods()) {
    client.send_period(session, p.to_events());
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!replicator->stalled(session) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(replicator->stalled(session));

  // Locally everything is durable; over the wire nothing is acked.
  ServeClient direct;
  direct.connect("127.0.0.1", primary.port());
  EXPECT_EQ(direct.resume(session), 0u);
  EXPECT_EQ(primary.manager().resume_high_water(SessionId{session}),
            trace.num_periods());
  // And flush() cannot complete: the replication gap never acks, so the
  // client refuses to claim durability it cannot prove.
  EXPECT_THROW((void)client.flush(session), Error);
  // The primary still serves and learns — a stall degrades replication,
  // not service.
  const WireSnapshot snap = direct.query(session, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());

  primary.stop();
  replicator->stop();
}

TEST(Replication, KeysRouteLocallyOrRedirectToTheOwner) {
  cluster::ClusterMap map;
  map.epoch = 7;
  map.shards.push_back(
      {cluster::Endpoint{"127.0.0.1", 1}, cluster::Endpoint{}});
  map.shards.push_back(
      {cluster::Endpoint{"127.0.0.1", 2}, cluster::Endpoint{}});

  Server server;  // plays shard 0; no followers -> no shipping
  auto replicator = std::make_shared<cluster::Replicator>(
      server.manager(), map, 0, /*follower_role=*/false);
  ASSERT_FALSE(replicator->shipping());
  server.set_cluster(replicator);
  server.start();

  std::string local_key, remote_key;
  for (int i = 0; local_key.empty() || remote_key.empty(); ++i) {
    ASSERT_LT(i, 1000);
    const std::string key = "key-" + std::to_string(i);
    (map.shard_for(key) == 0 ? local_key : remote_key) = key;
  }

  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session =
      client.open_cluster_session(local_key, {"a", "b"});
  const WireSnapshot snap = client.query(session, /*drain=*/false);
  EXPECT_EQ(snap.session, session);

  try {
    (void)client.open_cluster_session(remote_key, {"a", "b"});
    FAIL() << "expected a Redirect for " << remote_key;
  } catch (const Redirected& r) {
    EXPECT_EQ(r.redirect().shard, 1u);
    EXPECT_EQ(r.redirect().epoch, map.epoch);
    EXPECT_EQ(r.redirect().endpoint, map.shards[1].primary.str());
  }
  // The map is served over the wire for client bootstrap.
  const cluster::ClusterMap fetched =
      cluster::ClusterMap::from_wire(client.fetch_cluster_map());
  EXPECT_EQ(fetched.serialize(), map.serialize());
  server.stop();
}

TEST(Replication, OpenSessionAsIsIdempotentAndChecked) {
  Server server(durable_config(fresh_dir("open_as")));
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  client.open_session_as(5, {"x", "y"});
  client.open_session_as(5, {"x", "y"});  // mirror retry: same universe, ok
  EXPECT_THROW(client.open_session_as(5, {"x", "z"}), Error);

  const Trace trace = gm_trace(1, 3);
  client.open_session_as(9, trace.task_names());
  std::uint64_t seq = 0;
  for (const Period& p : trace.periods()) {
    client.send_period(9, p.to_events(), ++seq);
  }
  EXPECT_EQ(client.resume(9), trace.num_periods());
  server.stop();
}

}  // namespace
}  // namespace bbmg
