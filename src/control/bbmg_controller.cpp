// bbmg_controller: the self-healing control plane daemon (DESIGN.md
// "Self-healing control plane").
//
//   bbmg_controller --cluster-map <file> [--interval <ms>] [--timeout <ms>]
//                   [--confirm <ms>] [--cooldown <ms>] [--no-readmit]
//                   [--port <n>] [--duration <sec>]
//                   [--log-level debug|info|warn|error]
//
// Embeds a full monitor (scraping every endpoint of the map, evaluating
// the stock SLOs, answering HealthRequest on --port) and wires its
// per-tick verdict into a Controller: a primary that stays Down through
// the confirmation window gets its follower promoted, the epoch-bumped
// map is pushed to every surviving daemon over MapUpdate frames, and
// the resurrected ex-primary is later re-admitted as follower to heal
// replication.  Clients never drive the failover — they just follow the
// pushed map via Fenced replies and refreshes.
//
// The on-disk map file is read once at startup and never rewritten; a
// node the supervisor restarts with the stale file is fenced or
// re-admitted by the live protocol.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "cluster/cluster_map.hpp"
#include "control/controller.hpp"
#include "monitor/monitor.hpp"
#include "obs/log.hpp"

using namespace bbmg;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: bbmg_controller --cluster-map <file> [--interval <ms>] "
      "[--timeout <ms>] [--confirm <ms>] [--cooldown <ms>] [--no-readmit] "
      "[--port <n>] [--duration <sec>] "
      "[--log-level debug|info|warn|error]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  monitor::MonitorConfig mon_config;
  control::ControllerConfig ctl_config;
  std::string map_file;
  unsigned long duration_sec = 0;  // 0 = run until SIGINT/SIGTERM
  std::uint16_t port = 7351;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster-map") == 0) {
      if (i + 1 >= argc) return usage();
      map_file = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      if (i + 1 >= argc) return usage();
      mon_config.interval_ms = std::strtoul(argv[++i], nullptr, 10);
      if (mon_config.interval_ms == 0) return usage();
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      if (i + 1 >= argc) return usage();
      mon_config.scrape.request_timeout_ms =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      if (mon_config.scrape.request_timeout_ms == 0) return usage();
    } else if (std::strcmp(argv[i], "--confirm") == 0) {
      if (i + 1 >= argc) return usage();
      ctl_config.confirm_ms = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--cooldown") == 0) {
      if (i + 1 >= argc) return usage();
      ctl_config.cooldown_ms = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-readmit") == 0) {
      ctl_config.readmit = false;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (i + 1 >= argc) return usage();
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      if (i + 1 >= argc) return usage();
      duration_sec = std::strtoul(argv[++i], nullptr, 10);
      if (duration_sec == 0) return usage();
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
      return usage();
    }
  }
  if (map_file.empty()) return usage();
  mon_config.port = port;

  try {
    const cluster::ClusterMap map = cluster::ClusterMap::load(map_file);
    monitor::Monitor mon(mon_config);
    mon.add_cluster_map(map);

    RetryConfig push_retry;
    push_retry.max_retries = 2;
    push_retry.request_timeout_ms = 2000;
    control::Controller controller(map, ctl_config,
                                   control::wire_map_push(push_retry));
    mon.set_report_sink([&controller](const monitor::HealthReport& report,
                                      std::uint64_t now_ms) {
      for (const control::ControlAction& action :
           controller.on_report(report, now_ms)) {
        std::printf("bbmg_controller: %s shard %zu -> %s (epoch %llu)\n",
                    control::action_kind_name(action.kind), action.shard,
                    action.node.str().c_str(),
                    static_cast<unsigned long long>(action.epoch));
        std::fflush(stdout);
      }
    });

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    mon.start();
    std::printf(
        "bbmg_controller: %zu shard(s), epoch %llu, listening on "
        "127.0.0.1:%u, tick every %llu ms\n",
        map.shards.size(), static_cast<unsigned long long>(map.epoch),
        static_cast<unsigned>(mon.port()),
        static_cast<unsigned long long>(mon_config.interval_ms));
    std::fflush(stdout);

    const std::uint64_t started_ms = monitor::Monitor::wall_ms();
    while (g_stop == 0) {
      if (duration_sec != 0 &&
          monitor::Monitor::wall_ms() - started_ms >= duration_sec * 1000) {
        break;
      }
      timespec ts{};
      ts.tv_nsec = 50 * 1000000;
      (void)::nanosleep(&ts, nullptr);
    }
    mon.stop();
    std::printf("bbmg_controller: exiting at epoch %llu\n",
                static_cast<unsigned long long>(controller.epoch()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbmg_controller: fatal: %s\n", e.what());
    return 1;
  }
}
