#include "cluster/replicator.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "cluster/cluster_metrics.hpp"
#include "common/error.hpp"
#include "durable/wal.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"

namespace bbmg::cluster {

Replicator::Replicator(SessionManager& manager, ClusterMap map,
                       std::size_t shard, bool follower_role,
                       ReplicatorConfig config)
    : manager_(manager),
      shard_(shard),
      config_(config),
      map_(std::move(map)),
      follower_role_(follower_role),
      queue_(config.queue_capacity),
      client_(config.retry) {
  BBMG_REQUIRE(shard_ < map_.shards.size(),
               "replicator: shard index beyond the cluster map");
  if (config_.ack_every == 0) config_.ack_every = 1;
  self_ = follower_role_ ? map_.shards[shard_].follower
                         : map_.shards[shard_].primary;
  BBMG_REQUIRE(self_.valid(),
               "replicator: this node's own endpoint is not in the map "
               "(follower role on a shard with no follower?)");
  role_shard_ = shard_;
  fence_epoch_.store(map_.epoch, std::memory_order_relaxed);
  shipping_ =
      !follower_role_ && map_.shards[shard_].has_follower();
  if (shipping_) {
    follower_ = map_.shards[shard_].follower;
    client_.set_endpoint(follower_.host, follower_.port);
    client_.set_write_epoch(map_.epoch);
  }
  ship_active_ = shipping_;
}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  // Always spawn in cluster mode: a node that starts as a follower (or a
  // primary with no follower) still needs the thread the moment a pushed
  // map changes its role.
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  queue_.close();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
  }
  hw_cv_.notify_all();
}

std::uint64_t Replicator::replicated(std::uint32_t session) const {
  std::lock_guard<std::mutex> lock(hw_mu_);
  const auto it = replicated_.find(session);
  return it == replicated_.end() ? 0 : it->second;
}

bool Replicator::stalled(std::uint32_t session) const {
  std::lock_guard<std::mutex> lock(hw_mu_);
  return stalled_.count(session) != 0;
}

ClusterMapResponseMsg Replicator::cluster_map() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_.to_wire();
}

std::optional<RedirectMsg> Replicator::route(const std::string& key) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const std::size_t owner = map_.shard_for(key);
  // A follower answers for its shard too: after a failover, newly opened
  // keys of the dead primary's shard land here directly.  A node cut out
  // of the map redirects everything.
  if (in_map_ && owner == role_shard_) return std::nullopt;
  RedirectMsg redirect;
  redirect.epoch = map_.epoch;
  redirect.shard = static_cast<std::uint32_t>(owner);
  redirect.endpoint = map_.shards[owner].primary.str();
  ClusterMetrics::get().redirects.inc();
  return redirect;
}

std::uint64_t Replicator::epoch() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return map_.epoch;
}

bool Replicator::admit_write(std::uint64_t epoch) {
  // Epoch 0 is the unfenced stamp (a writer that never learned a map) —
  // always admitted; fencing begins once a writer declares which regime it
  // believes in.
  if (epoch == 0 || epoch >= fence_epoch_.load(std::memory_order_relaxed)) {
    return true;
  }
  ClusterMetrics::get().fenced_writes.inc();
  return false;
}

bool Replicator::apply_map(const ClusterMapResponseMsg& wire) {
  ClusterMap next;
  try {
    next = ClusterMap::from_wire(wire);
  } catch (const std::exception& e) {
    BBMG_LOG_ERROR("cluster.map_update_rejected", e.what(),
                   {{"epoch", wire.epoch}});
    return false;
  }
  std::uint64_t old_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (next.epoch <= map_.epoch) return false;
    old_epoch = map_.epoch;
    const auto here = next.locate(self_);
    // The fence floor rises exactly when this node's place in the
    // topology changed: a promoted follower must reject the deposed
    // primary's old-epoch ship stream, and a demoted/readmitted primary
    // must reject clients still writing under the regime in which it
    // ruled.  A node whose role is unchanged (e.g. another shard failed
    // over) keeps its floor, so clients stamped with the previous epoch
    // keep working through the bump.
    const bool role_changed =
        here.has_value() != in_map_ ||
        (here.has_value() && (here->follower != follower_role_ ||
                              here->shard != role_shard_));
    if (role_changed) {
      fence_epoch_.store(next.epoch, std::memory_order_relaxed);
    }
    map_ = std::move(next);
    in_map_ = here.has_value();
    if (here.has_value()) {
      role_shard_ = here->shard;
      follower_role_ = here->follower;
    }
    shipping_ = in_map_ && !follower_role_ &&
                map_.shards[role_shard_].has_follower();
    follower_ = shipping_ ? map_.shards[role_shard_].follower : Endpoint{};
    // A new regime supersedes whatever fencing the old one suffered.
    deposed_.store(false, std::memory_order_relaxed);
    map_gen_.fetch_add(1, std::memory_order_release);
  }
  ClusterMetrics::get().map_updates.inc();
  BBMG_LOG_INFO("cluster.map_installed",
                "controller-pushed cluster map installed",
                {{"old_epoch", old_epoch}, {"new_epoch", wire.epoch}});
  // Wake the ship thread promptly.  If the queue is full the thread is
  // busy and will notice the generation change on its next item anyway.
  (void)queue_.try_push(ShipItem{0, 0, {}, true});
  hw_cv_.notify_all();
  return true;
}

void Replicator::note_applied(std::uint32_t session, std::uint64_t seq,
                              const std::vector<Event>& events) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (!shipping_) return;
  }
  {
    // A stalled session ships nothing more; queueing its periods would
    // only pressure the healthy sessions' lag bound.
    std::lock_guard<std::mutex> lock(hw_mu_);
    if (stalled_.count(session) != 0) return;
  }
  // Blocking push: the lag bound.  False only when the queue closed
  // (shutdown) — the period is still locally durable, just unreplicated.
  (void)queue_.push(ShipItem{session, seq, events, false});
}

std::uint64_t Replicator::bounded_high_water(std::uint32_t session,
                                             std::uint64_t local_high_water) {
  if (!shipping()) return local_high_water;
  const std::uint32_t wait_ms = config_.retry.request_timeout_ms != 0
                                    ? config_.retry.request_timeout_ms
                                    : 5000;
  std::unique_lock<std::mutex> lock(hw_mu_);
  // The caller drained the session first, so every period at or below
  // local_high_water is already enqueued here; wait (bounded) for the
  // ship thread to land and ack them.  On timeout, stall or deposition,
  // answer the smaller replicated mark — the client keeps the difference
  // buffered.
  const auto replicated_now = [&]() -> std::uint64_t {
    const auto it = replicated_.find(session);
    return it == replicated_.end() ? 0 : it->second;
  };
  (void)hw_cv_.wait_for(
      lock, std::chrono::milliseconds(wait_ms), [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               deposed_.load(std::memory_order_relaxed) ||
               stalled_.count(session) != 0 ||
               replicated_now() >= local_high_water;
      });
  return std::min(local_high_water, replicated_now());
}

void Replicator::run() {
  while (auto item = queue_.pop()) {
    const std::uint64_t gen = map_gen_.load(std::memory_order_acquire);
    if (gen != seen_gen_) {
      seen_gen_ = gen;
      reconfigure();
    }
    if (!item->control && ship_active_) handle(std::move(*item));
    // Idle-ack: the moment the stream pauses, push the replicated marks
    // forward so bounded_high_water converges without timers.
    if (ship_active_ && queue_.size() == 0) ack_idle();
  }
}

void Replicator::reconfigure() {
  Endpoint follower;
  bool shipping = false;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    follower = follower_;
    shipping = shipping_;
    epoch = map_.epoch;
  }
  // Drop every trace of the previous regime.  The replicated marks in
  // particular must reset: publish_replicated only ever advances, and the
  // new follower's durable marks can be lower than the old one's —
  // keeping the stale maximum would let Resume trim periods the new
  // follower lacks.
  states_.clear();
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
    replicated_.clear();
    stalled_.clear();
  }
  hw_cv_.notify_all();
  ClusterMetrics::get().replication_stalled.set(0);
  ship_active_ = shipping;
  BBMG_LOG_INFO("cluster.reconfigured",
                shipping ? "shipping to " + follower.str() : "not shipping",
                {{"epoch", epoch}});
  if (!shipping) return;
  client_.set_endpoint(follower.host, follower.port);
  client_.set_write_epoch(epoch);
  // Heal pass: mirror every live session onto the new follower from its
  // WAL, so sessions whose traffic stopped before the failover still
  // reach it.  Live traffic arriving meanwhile queues behind this pass
  // and is deduplicated by seq on the follower.
  for (const std::uint32_t session : manager_.session_ids()) {
    ShipState& state = states_[session];
    setup_session(session, state);
    if (!state.ready || state.stalled) continue;
    const auto info = manager_.session_info(SessionId{session});
    if (info.has_value() && !info->wal_path.empty()) {
      gap_fill(session, state, std::numeric_limits<std::uint64_t>::max(),
               /*to_end=*/true);
      if (state.stalled) continue;
    }
    ack_session(session, state);
  }
  update_lag_gauge();
}

void Replicator::step_down() {
  if (deposed_.exchange(true, std::memory_order_relaxed)) return;
  std::uint64_t cur = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    cur = map_.epoch;
  }
  // This node was fenced by its peer: a higher regime exists that it has
  // not seen yet.  Refuse every write stamped with the epoch it ruled
  // under, so no client gets an ack the new regime would not honour.
  std::uint64_t floor = fence_epoch_.load(std::memory_order_relaxed);
  while (floor < cur + 1 &&
         !fence_epoch_.compare_exchange_weak(floor, cur + 1,
                                             std::memory_order_relaxed)) {
  }
  ClusterMetrics::get().step_downs.inc();
  BBMG_LOG_ERROR("cluster.step_down",
                 "ship stream fenced by the peer; stepping down as primary",
                 {{"epoch", cur}});
  hw_cv_.notify_all();
}

void Replicator::handle(ShipItem item) {
  ShipState& state = states_[item.session];
  if (state.stalled) return;
  if (!state.ready) {
    setup_session(item.session, state);
    if (state.stalled) return;
  }
  if (item.seq <= state.shipped) return;  // the follower already holds it
  if (item.seq > state.shipped + 1) {
    // The follower resumed behind the live stream (fresh follower, or a
    // restart that lost its tail): heal from the primary's own WAL.
    gap_fill(item.session, state, item.seq - 1);
    if (state.stalled) return;
  }
  ClusterMetrics& metrics = ClusterMetrics::get();
  try {
    obs::Span span(&metrics.ship_latency_us, "cluster.ship");
    client_.send_period(item.session, std::move(item.events));
  } catch (const FencedError& e) {
    step_down();
    stall(item.session, state, std::string("ship fenced: ") + e.what());
    return;
  } catch (const std::exception& e) {
    stall(item.session, state, e.what());
    return;
  }
  state.shipped = item.seq;
  metrics.shipped_periods.inc();
  if (++state.since_ack >= config_.ack_every) {
    ack_session(item.session, state);
  }
  update_lag_gauge();
}

void Replicator::setup_session(std::uint32_t session, ShipState& state) {
  const auto info = manager_.session_info(SessionId{session});
  if (!info.has_value()) {
    stall(session, state, "session vanished before replication setup");
    return;
  }
  try {
    const std::uint64_t high_water = client_.open_session_as(
        session, info->task_names,
        static_cast<std::uint32_t>(info->config.robust.online.bound),
        info->config.robust.sanitize.policy,
        static_cast<std::uint32_t>(info->config.snapshot_interval));
    state.shipped = high_water;
    state.ready = true;
    // Everything at or below the follower's resume mark is already
    // replicated durable — publish it so Resume clamps correctly from
    // the first ack on.
    publish_replicated(session, high_water);
  } catch (const FencedError& e) {
    step_down();
    stall(session, state, std::string("setup fenced: ") + e.what());
  } catch (const std::exception& e) {
    stall(session, state, e.what());
  }
}

void Replicator::gap_fill(std::uint32_t session, ShipState& state,
                          std::uint64_t upto, bool to_end) {
  const auto info = manager_.session_info(SessionId{session});
  if (!info.has_value() || info->wal_path.empty()) {
    stall(session, state, "gap fill: no live WAL for the session");
    return;
  }
  ClusterMetrics& metrics = ClusterMetrics::get();
  try {
    // The live WAL only reaches back to its base (records below it were
    // compacted into a snapshot); a gap below the base is unfillable.
    const durable::WalHeader header = durable::read_wal_header(info->wal_path);
    if (header.base_seq > state.shipped) {
      stall(session, state,
            "gap fill: follower behind the WAL base (seq " +
                std::to_string(state.shipped + 1) + " < base " +
                std::to_string(header.base_seq + 1) + "; rotated away)");
      return;
    }
    (void)durable::scan_wal_file(
        info->wal_path, [&](durable::WalRecord&& rec) {
          if (rec.seq <= state.shipped || rec.seq > upto) return;
          // Records stream in contiguous order, so rec.seq is exactly
          // state.shipped + 1 here — the follower seq invariant holds.
          client_.send_period(session, std::move(rec.events));
          state.shipped = rec.seq;
          metrics.gap_fill_periods.inc();
          metrics.shipped_periods.inc();
        });
  } catch (const FencedError& e) {
    step_down();
    stall(session, state, std::string("gap fill fenced: ") + e.what());
    return;
  } catch (const std::exception& e) {
    stall(session, state, std::string("gap fill: ") + e.what());
    return;
  }
  if (!to_end && state.shipped < upto) {
    // A concurrent rotation (or torn tail) cut the scan short.
    stall(session, state,
          "gap fill: WAL ended at seq " + std::to_string(state.shipped) +
              " before covering the gap to " + std::to_string(upto));
  }
}

void Replicator::ack_session(std::uint32_t session, ShipState& state) {
  ClusterMetrics& metrics = ClusterMetrics::get();
  try {
    obs::Span span(&metrics.ack_latency_us, "cluster.ack");
    const std::uint64_t high_water = client_.flush(session);
    state.since_ack = 0;
    metrics.ack_rounds.inc();
    publish_replicated(session, high_water);
  } catch (const FencedError& e) {
    step_down();
    stall(session, state, std::string("ack fenced: ") + e.what());
  } catch (const std::exception& e) {
    stall(session, state, std::string("ack: ") + e.what());
  }
}

void Replicator::ack_idle() {
  for (auto& [session, state] : states_) {
    if (state.ready && !state.stalled && state.since_ack > 0) {
      ack_session(session, state);
    }
  }
  update_lag_gauge();
}

void Replicator::stall(std::uint32_t session, ShipState& state,
                       const std::string& why) {
  state.stalled = true;
  ClusterMetrics& metrics = ClusterMetrics::get();
  metrics.ship_errors.inc();
  metrics.stalled_sessions.inc();
  BBMG_LOG_ERROR("cluster.replication_stalled", why, {{"session", session}});
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
    stalled_.insert(session);
  }
  update_stalled_gauge();
  // Wake Resume waiters: the mark will not advance; min() keeps them safe.
  hw_cv_.notify_all();
}

void Replicator::publish_replicated(std::uint32_t session,
                                    std::uint64_t high_water) {
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
    std::uint64_t& mark = replicated_[session];
    mark = std::max(mark, high_water);
    high_water = mark;
  }
  hw_cv_.notify_all();
  ClusterMetrics::replicated_high_water(session).set(
      static_cast<std::int64_t>(high_water));
}

void Replicator::update_lag_gauge() {
  // states_ is ship-thread-local; only the replicated marks need the lock.
  std::uint64_t shipped_unacked = 0;
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
    for (const auto& [session, state] : states_) {
      const auto it = replicated_.find(session);
      const std::uint64_t acked = it == replicated_.end() ? 0 : it->second;
      if (state.shipped > acked) shipped_unacked += state.shipped - acked;
    }
  }
  ClusterMetrics::get().replication_lag.set(
      static_cast<std::int64_t>(shipped_unacked + queue_.size()));
}

void Replicator::update_stalled_gauge() {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(hw_mu_);
    n = stalled_.size();
  }
  ClusterMetrics::get().replication_stalled.set(static_cast<std::int64_t>(n));
}

}  // namespace bbmg::cluster
