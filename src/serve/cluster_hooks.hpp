// The narrow seam between the serving front-end and the cluster layer.
//
// bbmg_serve cannot link against bbmg_cluster (the cluster library builds
// on top of the serve client), so the server sees cluster behaviour only
// through this interface: the accept loop asks it to route keys and serve
// the map, session workers hand it applied periods to ship, and the Resume
// path asks it to bound the acked high-water mark by what the follower
// durably holds.  cluster::Replicator is the one production
// implementation; tests may stub it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "trace/event.hpp"

namespace bbmg {

class ClusterHooks {
 public:
  virtual ~ClusterHooks() = default;

  /// The wire form of this node's cluster map (ClusterMapRequest reply).
  [[nodiscard]] virtual ClusterMapResponseMsg cluster_map() const = 0;

  /// Route an OpenClusterSession key: nullopt when this node serves the
  /// key itself, otherwise the Redirect to answer instead.
  [[nodiscard]] virtual std::optional<RedirectMsg> route(
      const std::string& key) const = 0;

  /// A session worker applied (and durably logged) period `seq`.  Called
  /// after the WAL append and before the period is acked to the client;
  /// may block briefly when the ship queue is full — that backpressure is
  /// what bounds replication lag.
  virtual void note_applied(std::uint32_t session, std::uint64_t seq,
                            const std::vector<Event>& events) = 0;

  /// Clamp a locally-durable high-water mark to what the follower has
  /// acked, waiting a bounded time for in-flight ships to land.  A
  /// replicating primary acks Resume with min(local, replicated) so a
  /// client never trims periods the follower lacks; non-replicating nodes
  /// return `local_high_water` unchanged.
  [[nodiscard]] virtual std::uint64_t bounded_high_water(
      std::uint32_t session, std::uint64_t local_high_water) = 0;

  /// This node's current cluster-map epoch (control plane).
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;

  /// Epoch fence for session-mutating requests: true admits the write,
  /// false means the stamped epoch is below this node's fence floor and
  /// the server must answer ErrorReply(Fenced).  Epoch 0 (legacy,
  /// unfenced writer) is always admitted.
  [[nodiscard]] virtual bool admit_write(std::uint64_t epoch) = 0;

  /// Install a controller-pushed map (MapUpdate).  Returns true when the
  /// pushed epoch is strictly higher than the current one and the map was
  /// installed — the node re-derives its role (a promoted follower starts
  /// shipping, a demoted primary stops and heals); false ignores the push.
  virtual bool apply_map(const ClusterMapResponseMsg& map) = 0;
};

}  // namespace bbmg
