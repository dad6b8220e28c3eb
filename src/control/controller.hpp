// The control plane's repair half (DESIGN.md "Self-healing control
// plane"): a Controller consumes the monitor's per-tick HealthReport and
// turns sustained primary death into an executed failover — promote the
// follower, bump the cluster-map epoch, push the new map into every
// surviving daemon over MapUpdate frames — with no operator and no
// client cooperation required.
//
// Detection is deliberately conservative.  A primary must report Down
// (the scraper's own freshness ladder already demands down_after_ms of
// failed scrapes) continuously for confirm_ms before the controller acts,
// its follower must be reporting Ok at that moment, and each shard gets
// at most one action per cooldown_ms — a flapping network cannot make the
// controller saw the cluster back and forth.
//
// Commit discipline: the *critical* peer — the node whose behaviour the
// new map changes (the promoted follower; on re-admission, the readmitted
// node and then the shard's primary) — must acknowledge the pushed map at
// or above the new epoch BEFORE the controller commits it.  If the
// critical push fails the transition aborts with no state change and is
// retried on a later report; pushes are idempotent ("already at epoch N"
// counts as success), so a transition interrupted half-way re-runs
// safely.  After commit, the map is broadcast best-effort to every other
// endpoint; a daemon that misses the broadcast learns the epoch the hard
// way, via a Fenced reply or a client redirect.
//
// The controller never rewrites the on-disk map file: a node restarted by
// the supervisor comes back with its stale map and is fenced or
// re-admitted by the live protocol, which is exactly the split-brain
// scenario the epoch fence exists for.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "monitor/monitor.hpp"
#include "serve/resilient_client.hpp"

namespace bbmg::control {

struct ControllerConfig {
  /// A primary must report Down continuously this long before its
  /// follower is promoted (on top of the scraper's down_after_ms).
  std::uint64_t confirm_ms{3000};
  /// Minimum spacing between committed actions on one shard.
  std::uint64_t cooldown_ms{10000};
  /// Re-admit a resurrected ex-primary as the shard's follower once it
  /// reports Ok again (heals replication after a failover).
  bool readmit{true};
};

enum class ActionKind : std::uint8_t { Promote = 0, Readmit = 1 };

[[nodiscard]] const char* action_kind_name(ActionKind kind);

/// One committed transition, for logs/tests: which shard, the epoch of
/// the map that resulted, and the node whose role changed (the promoted
/// follower / the re-admitted ex-primary).
struct ControlAction {
  ActionKind kind{ActionKind::Promote};
  std::size_t shard{0};
  std::uint64_t epoch{0};
  cluster::Endpoint node;
};

/// Push one wire map into one daemon; returns true when the daemon
/// acknowledged the map at or above its epoch (accepted it now, or
/// already there — idempotent retries of an aborted transition must
/// succeed).  Tests substitute lambdas; production uses wire_map_push().
using MapPush = std::function<bool(const cluster::Endpoint& node,
                                   const ClusterMapResponseMsg& map)>;

/// The production MapPush: a fresh ResilientClient per push (the targets
/// change across failovers; caching connections buys little), one
/// MapUpdate, success = accepted or already at/above the pushed epoch.
/// Exceptions are swallowed into `false` — an unreachable daemon is a
/// normal condition mid-failover.
[[nodiscard]] MapPush wire_map_push(RetryConfig retry = {});

class Controller {
 public:
  Controller(cluster::ClusterMap map, ControllerConfig config, MapPush push);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Consume one monitor verdict (wire this into
  /// Monitor::set_report_sink).  Evaluates every shard against the
  /// confirmation window and cool-down, executes any due transitions
  /// (critical push, commit, broadcast), and returns the actions
  /// committed this call — empty almost always.
  std::vector<ControlAction> on_report(const monitor::HealthReport& report,
                                       std::uint64_t now_ms);

  /// The committed map / its epoch (the fleet's current regime).
  [[nodiscard]] cluster::ClusterMap map() const;
  [[nodiscard]] std::uint64_t epoch() const;

 private:
  /// Push `map` to `node`, counting failures; true on ack-at-epoch.
  bool push_to(const cluster::Endpoint& node,
               const ClusterMapResponseMsg& wire);
  /// Best-effort broadcast of the committed map to every endpoint except
  /// the ones already pushed critically.
  void broadcast(const cluster::ClusterMap& map,
                 const std::vector<cluster::Endpoint>& already_pushed);

  ControllerConfig config_;
  MapPush push_;

  mutable std::mutex mu_;
  cluster::ClusterMap map_;  // guarded by mu_
  /// First tick (now_ms) at which each endpoint ("host:port") was seen
  /// Down; erased the moment it reports anything else.
  std::unordered_map<std::string, std::uint64_t> down_since_;
  /// Last committed-action tick per shard (cool-down gate).
  std::unordered_map<std::size_t, std::uint64_t> last_action_ms_;
  /// The primary each shard lost to a promotion, remembered so its
  /// resurrection can be re-admitted as the shard's follower.
  std::unordered_map<std::size_t, cluster::Endpoint> deposed_;
};

}  // namespace bbmg::control
