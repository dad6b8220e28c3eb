// bbmg_monitor: the fleet telemetry daemon (DESIGN.md "Telemetry plane").
//
//   bbmg_monitor [--endpoints name=host:port[,name=host:port...]]
//                [--cluster-map <file>] [--interval <ms>] [--port <n>]
//                [--timeout <ms>] [--duration <sec>] [--once] [--dash]
//                [--json] [--log-level debug|info|warn|error]
//
// Scrapes every configured target (standalone daemons by --endpoints,
// whole clusters — primaries and followers — by --cluster-map) every
// --interval ms over the ordinary wire protocol, feeds the samples into
// the in-memory time-series store, and evaluates the stock SLO objectives
// (ingest latency, client RTT, client error ratio) as multi-window
// burn rates.  Alert transitions are structured-logged as
// "monitor.slo_transition"; the current verdict is served on --port
// (default 7350; 0 picks an ephemeral port and prints it) to any wire peer —
// `bbmg_client health <host> <port>` renders it.
//
// Modes: default runs as a daemon printing a one-line summary per
// interval; --dash redraws a live terminal view instead; --once does a
// single scrape+evaluate, prints the report (text, or JSON with --json)
// and exits 0/1/2 for ok/warn/page — scriptable spot checks.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "cluster/cluster_map.hpp"
#include "common/error.hpp"
#include "monitor/monitor.hpp"
#include "obs/log.hpp"

using namespace bbmg;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage: bbmg_monitor [--endpoints name=host:port[,...]] "
      "[--cluster-map <file>] [--interval <ms>] [--port <n>] "
      "[--timeout <ms>] [--duration <sec>] [--once] [--dash] [--json] "
      "[--log-level debug|info|warn|error]\n");
  return 2;
}

/// Parse "name=host:port[,name=host:port...]" into scrape targets.
bool add_endpoints(monitor::Monitor& mon, const std::string& spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    mon.add_endpoint(item.substr(0, eq),
                     cluster::Endpoint::parse(item.substr(eq + 1)));
    pos = comma + 1;
  }
  return true;
}

int overall_exit_code(const monitor::HealthReport& report) {
  switch (report.overall) {
    case monitor::AlertState::Ok:
      return 0;
    case monitor::AlertState::Warn:
      return 1;
    case monitor::AlertState::Page:
      return 2;
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  monitor::MonitorConfig config;
  std::string endpoints_spec;
  std::string map_file;
  unsigned long duration_sec = 0;  // 0 = run until SIGINT/SIGTERM
  bool once = false;
  bool dash = false;
  bool json = false;
  std::uint16_t port = 7350;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--endpoints") == 0) {
      if (i + 1 >= argc) return usage();
      endpoints_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--cluster-map") == 0) {
      if (i + 1 >= argc) return usage();
      map_file = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      if (i + 1 >= argc) return usage();
      config.interval_ms = std::strtoul(argv[++i], nullptr, 10);
      if (config.interval_ms == 0) return usage();
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (i + 1 >= argc) return usage();
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      if (i + 1 >= argc) return usage();
      config.scrape.request_timeout_ms =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      if (config.scrape.request_timeout_ms == 0) return usage();
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      if (i + 1 >= argc) return usage();
      duration_sec = std::strtoul(argv[++i], nullptr, 10);
      if (duration_sec == 0) return usage();
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--dash") == 0) {
      dash = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
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
  config.port = port;
  config.listen = !once;

  try {
    monitor::Monitor mon(config);
    if (!endpoints_spec.empty() && !add_endpoints(mon, endpoints_spec)) {
      return usage();
    }
    if (!map_file.empty()) {
      mon.add_cluster_map(cluster::ClusterMap::load(map_file));
    }

    if (once) {
      const std::uint64_t now = monitor::Monitor::wall_ms();
      mon.tick(now);
      const monitor::HealthReport report = mon.report();
      if (json) {
        std::printf("%s\n", monitor::Monitor::render_json(report).c_str());
      } else {
        std::printf("%s",
                    monitor::Monitor::render_text(report, now).c_str());
      }
      return overall_exit_code(report);
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    mon.start();
    std::printf("bbmg_monitor: listening on 127.0.0.1:%u, scraping every %llu ms\n",
                static_cast<unsigned>(mon.port()),
                static_cast<unsigned long long>(config.interval_ms));
    std::fflush(stdout);

    const std::uint64_t started_ms = monitor::Monitor::wall_ms();
    std::uint64_t last_render_ticks = 0;
    while (g_stop == 0) {
      if (duration_sec != 0 &&
          monitor::Monitor::wall_ms() - started_ms >= duration_sec * 1000) {
        break;
      }
      const std::uint64_t ticks = mon.ticks();
      if (ticks != last_render_ticks) {
        last_render_ticks = ticks;
        const monitor::HealthReport report = mon.report();
        const std::uint64_t now = monitor::Monitor::wall_ms();
        if (dash) {
          // Repaint: clear screen, home cursor, full report.
          std::printf("\x1b[2J\x1b[H== bbmg_monitor ==\n%s",
                      json ? monitor::Monitor::render_json(report).c_str()
                           : monitor::Monitor::render_text(report, now)
                                 .c_str());
        } else {
          std::size_t ok = 0;
          for (const monitor::EndpointStatus& e : report.endpoints) {
            if (e.state == monitor::EndpointState::Ok) ++ok;
          }
          const monitor::TsStoreStats stats = mon.store().stats();
          std::printf(
              "bbmg_monitor: overall %s, %zu/%zu endpoints ok, "
              "%zu series / %zu samples (%zu bytes)\n",
              monitor::alert_state_name(report.overall), ok,
              report.endpoints.size(), stats.series, stats.samples,
              stats.encoded_bytes);
        }
        std::fflush(stdout);
      }
      timespec ts{};
      ts.tv_nsec = 50 * 1000000;
      (void)::nanosleep(&ts, nullptr);
    }
    mon.stop();
    return overall_exit_code(mon.report());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbmg_monitor: fatal: %s\n", e.what());
    return 1;
  }
}
