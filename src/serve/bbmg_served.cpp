// bbmg_served: the learning service daemon.
//
//   bbmg_served [port] [workers] [queue-capacity] [--stats-interval <sec>]
//               [--data-dir <dir>] [--fsync-every <n>] [--snapshot-every <n>]
//               [--trace] [--span-ring <n>] [--log-level <level>]
//               [--idle-timeout <ms>]
//               [--cluster-map <file> --shard <n> [--follower]]
//
// Listens on 127.0.0.1:<port> (default 7227; 0 picks an ephemeral port and
// prints it), shards incoming learning sessions over <workers> threads
// (default 2), and serves model queries from per-session snapshots.  With
// --stats-interval N a one-line observability summary (sessions, periods,
// queries, quarantine, queue depth) is printed every N seconds.
//
// With --data-dir the daemon is crash-safe: every accepted period is
// WAL-logged before it is learned from, sessions are compacted with
// periodic snapshots, and startup recovers every session found in the
// directory (quarantining corrupt files, never aborting).  SIGTERM/SIGINT
// trigger a graceful drain: stop accepting, finish queued periods, flush
// and snapshot every session, exit 0 — restart needs no WAL replay.
//
// Observability (PR 5): --trace enables the causal span ring, so traced
// requests (clients sending TraceContext envelopes) record their
// server-side stage spans, fetchable live via `bbmg_client trace`;
// --span-ring N sets the ring's capacity (default 4096 spans; evictions
// count in bbmg_obs_span_drops_total).  The crash flight recorder is
// armed whenever --data-dir is given: a fatal signal dumps the recent
// structured-log tail plus a cached metrics snapshot to
// <data-dir>/postmortem/crash-<signo>.log before the process dies.
//
// Cluster mode (PR 6): --cluster-map names a static map file (see
// cluster/cluster_map.hpp for the format) and --shard this node's index
// in it.  A primary whose map entry lists a follower replicates every
// durable period to it (cluster/replicator.hpp); --follower marks the
// node as that replica (it never ships, it receives).  Both roles answer
// ClusterMapRequest and route OpenClusterSession keys via Redirect.
// --idle-timeout closes client connections silent for that many ms
// (counted in bbmg_serve_connections_idle_closed_total).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <memory>

#include "cluster/replicator.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

using namespace bbmg;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: bbmg_served [port] [workers] [queue-capacity] "
               "[--stats-interval <seconds>] [--data-dir <dir>] "
               "[--fsync-every <n>] [--snapshot-every <n>] [--trace] "
               "[--span-ring <n>] [--log-level debug|info|warn|error] "
               "[--idle-timeout <ms>] "
               "[--cluster-map <file> --shard <n> [--follower]]\n");
  return 2;
}

/// One operator-facing line from the live metrics registry, e.g.
///   stats: 3 sessions, 1200 periods applied (0 overflows), 7 queries,
///          1190 learned / 10 quarantined, queue depth 4
void print_stats_line(const SessionManager& manager) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  std::int64_t depth = 0;
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name.rfind("bbmg_serve_queue_depth", 0) == 0) depth += g.value;
  }
  std::printf(
      "bbmg_served: stats: %zu sessions, %llu periods applied "
      "(%llu overflows), %llu queries, %llu learned / %llu quarantined, "
      "queue depth %lld, %llu spans dropped, %llu log lines suppressed\n",
      manager.num_sessions(),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_serve_periods_applied_total")),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_serve_overflows_total")),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_serve_queries_total")),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_learner_periods_total")),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_robust_quarantined_periods_total")),
      static_cast<long long>(depth),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_obs_span_drops_total")),
      static_cast<unsigned long long>(
          snap.counter_value("bbmg_obs_log_suppressed_total")));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  unsigned long stats_interval = 0;  // seconds; 0 = no periodic stats line
  bool trace = false;
  unsigned long span_ring = 0;  // 0 = keep the default capacity
  std::string cluster_map_file;
  unsigned long shard = 0;
  bool shard_given = false;
  bool follower = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-interval") == 0) {
      if (i + 1 >= argc) return usage();
      stats_interval = std::strtoul(argv[++i], nullptr, 10);
      if (stats_interval == 0) return usage();
    } else if (std::strcmp(argv[i], "--data-dir") == 0) {
      if (i + 1 >= argc) return usage();
      config.manager.durable.dir = argv[++i];
    } else if (std::strcmp(argv[i], "--fsync-every") == 0) {
      if (i + 1 >= argc) return usage();
      config.manager.durable.fsync_every = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      if (i + 1 >= argc) return usage();
      config.manager.durable.snapshot_every =
          std::strtoul(argv[++i], nullptr, 10);
      if (config.manager.durable.snapshot_every == 0) return usage();
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--idle-timeout") == 0) {
      if (i + 1 >= argc) return usage();
      config.idle_timeout_ms =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      if (config.idle_timeout_ms == 0) return usage();
    } else if (std::strcmp(argv[i], "--cluster-map") == 0) {
      if (i + 1 >= argc) return usage();
      cluster_map_file = argv[++i];
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      if (i + 1 >= argc) return usage();
      shard = std::strtoul(argv[++i], nullptr, 10);
      shard_given = true;
    } else if (std::strcmp(argv[i], "--follower") == 0) {
      follower = true;
    } else if (std::strcmp(argv[i], "--span-ring") == 0) {
      if (i + 1 >= argc) return usage();
      span_ring = std::strtoul(argv[++i], nullptr, 10);
      if (span_ring == 0) return usage();
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      if (i + 1 >= argc) return usage();
      const char* level = argv[++i];
      if (std::strcmp(level, "debug") == 0) {
        obs::Logger::instance().set_min_level(obs::LogLevel::Debug);
      } else if (std::strcmp(level, "info") == 0) {
        obs::Logger::instance().set_min_level(obs::LogLevel::Info);
      } else if (std::strcmp(level, "warn") == 0) {
        obs::Logger::instance().set_min_level(obs::LogLevel::Warn);
      } else if (std::strcmp(level, "error") == 0) {
        obs::Logger::instance().set_min_level(obs::LogLevel::Error);
      } else {
        return usage();
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  config.port =
      !positional.empty()
          ? static_cast<std::uint16_t>(std::strtoul(positional[0], nullptr, 10))
          : 7227;
  config.manager.workers =
      positional.size() > 1 ? std::strtoul(positional[1], nullptr, 10) : 2;
  config.manager.queue_capacity =
      positional.size() > 2 ? std::strtoul(positional[2], nullptr, 10) : 256;
  if ((cluster_map_file.empty() && (shard_given || follower)) ||
      (!cluster_map_file.empty() && !shard_given)) {
    std::fprintf(stderr,
                 "bbmg_served: --cluster-map and --shard go together "
                 "(--follower needs both)\n");
    return usage();
  }

  if (span_ring != 0) obs::SpanRing::instance().set_capacity(span_ring);
  if (trace) obs::SpanRing::instance().set_enabled(true);
  // Telemetry-loss counters register lazily on first drop; touch them now
  // so a healthy daemon exposes them at 0 and dashboards can rate() the
  // series from the start instead of discovering it mid-incident.
  (void)obs::MetricsRegistry::instance().counter(
      "bbmg_obs_span_drops_total",
      "Spans evicted unread from the span ring");
  (void)obs::MetricsRegistry::instance().counter(
      "bbmg_obs_log_suppressed_total",
      "Structured log lines dropped by per-site rate limiting");
  // Arm the crash flight recorder next to the durable state: a fatal
  // signal leaves a postmortem where the operator already looks for this
  // daemon's data.  (Armed before recovery so recovery events are in the
  // ring if recovery itself crashes.)
  if (config.manager.durable.enabled()) {
    obs::FlightRecorder::instance().arm_signal_handler(
        config.manager.durable.dir + "/postmortem");
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // A client that vanishes mid-reply must not kill the daemon.
  net::ignore_sigpipe();

  try {
    Server server(config);
    if (config.manager.durable.enabled()) {
      const RecoverySummary& rec = server.manager().recovery();
      std::printf("bbmg_served: recovery: %zu sessions, %llu periods "
                  "replayed, %llu torn WAL tails truncated, %zu files "
                  "quarantined\n",
                  rec.sessions,
                  static_cast<unsigned long long>(rec.replayed_periods),
                  static_cast<unsigned long long>(rec.torn_tails),
                  rec.quarantined_files);
      for (const std::string& d : rec.diagnostics) {
        std::printf("bbmg_served: recovery: %s\n", d.c_str());
      }
    }
    std::shared_ptr<cluster::Replicator> replicator;
    if (!cluster_map_file.empty()) {
      cluster::ClusterMap map = cluster::ClusterMap::load(cluster_map_file);
      replicator = std::make_shared<cluster::Replicator>(
          server.manager(), std::move(map), shard, follower);
      server.set_cluster(replicator);
      replicator->start();
    }
    server.start();
    if (replicator) {
      std::printf("bbmg_served: cluster shard %lu (%s%s, map epoch %llu, "
                  "%zu shards)\n",
                  shard, follower ? "follower" : "primary",
                  replicator->shipping() ? ", replicating" : "",
                  static_cast<unsigned long long>(replicator->map().epoch),
                  replicator->map().shards.size());
    }
    std::printf("bbmg_served: listening on 127.0.0.1:%u (%zu workers, "
                "queue capacity %zu periods)\n",
                unsigned{server.port()}, server.manager().num_workers(),
                config.manager.queue_capacity);
    if (trace) {
      std::printf("bbmg_served: tracing on (span ring capacity %zu)\n",
                  obs::SpanRing::instance().capacity());
    }
    std::fflush(stdout);
    BBMG_LOG_INFO("served.start", "daemon listening",
                  {{"port", std::uint32_t{server.port()}},
                   {"workers", server.manager().num_workers()},
                   {"tracing", trace}});
    std::size_t ticks = 0;
    while (!g_stop) {
      struct timespec ts {0, 100 * 1000 * 1000};
      nanosleep(&ts, nullptr);
      ++ticks;
      if (stats_interval != 0 && ticks % (stats_interval * 10) == 0) {
        print_stats_line(server.manager());
      }
      // Refresh the flight recorder's cached metrics about once a second,
      // so a crash dump's snapshot is at most that stale.
      if (ticks % 10 == 0) obs::FlightRecorder::instance().cache_metrics();
    }
    std::printf("bbmg_served: shutting down (%zu sessions served)\n",
                server.manager().num_sessions());
    BBMG_LOG_INFO("served.stop", "graceful drain",
                  {{"sessions", server.manager().num_sessions()}});
    // Graceful drain: stop() refuses new work and finishes every queued
    // period; checkpoint_all() then snapshots each durable session so the
    // next start recovers instantly, with no WAL tail to replay.
    server.stop();
    // The replicator outlives the server's workers (they call its ship
    // hook); only after stop() is it safe to drain and join it.
    if (replicator) replicator->stop();
    if (config.manager.durable.enabled()) {
      server.manager().checkpoint_all();
      std::printf("bbmg_served: all sessions checkpointed\n");
    }
  } catch (const std::exception& e) {
    BBMG_LOG_ERROR("served.fatal", e.what());
    std::fprintf(stderr, "bbmg_served: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
