#include "monitor/monitor.hpp"

#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "monitor/monitor_metrics.hpp"

namespace bbmg::monitor {

namespace {

std::uint64_t mono_ns() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_ms(std::uint64_t ms) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  (void)::nanosleep(&ts, nullptr);
}

std::uint64_t burn_to_micro(double burn) {
  if (burn <= 0.0) return 0;
  const double micro = burn * 1e6;
  // Cap instead of overflowing: 1e13 micro-burns is already "everything
  // is on fire" territory.
  if (micro >= 1e19) return static_cast<std::uint64_t>(1e19);
  return static_cast<std::uint64_t>(micro);
}

void json_escape_into(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        out << c;
    }
  }
}

}  // namespace

Monitor::Monitor(MonitorConfig config)
    : config_(std::move(config)),
      scraper_(store_, config_.scrape),
      engine_(store_, config_.objectives.empty() ? default_objectives()
                                                 : config_.objectives) {}

Monitor::~Monitor() { stop(); }

std::uint64_t Monitor::wall_ms() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000'000;
}

void Monitor::tick(std::uint64_t now_ms) {
  const std::uint64_t t0 = mono_ns();
  (void)scraper_.scrape_once(now_ms);
  HealthReport report;
  report.evaluated_at_ms = now_ms;
  report.objectives = engine_.evaluate(now_ms);
  report.endpoints = scraper_.statuses(now_ms);
  for (const ObjectiveStatus& o : report.objectives) {
    if (o.state > report.overall) report.overall = o.state;
  }
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_ = report;
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
  MonitorMetrics::get().tick_latency_us.observe((mono_ns() - t0) / 1000);
  // The sink runs after the report is published and outside the lock: a
  // controller acting on the verdict (promoting, pushing maps) can take
  // as long as it needs without stalling report() readers.
  if (sink_) sink_(report, now_ms);
}

HealthReport Monitor::report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return report_;
}

void Monitor::start() {
  BBMG_REQUIRE(!running_.exchange(true), "monitor: already started");
  if (config_.listen) {
    net::ignore_sigpipe();
    listener_ = net::listen_tcp(config_.port, 16);
    listen_thread_ = std::thread([this] { listen_loop(); });
  }
  scrape_thread_ = std::thread([this] { scrape_loop(); });
}

void Monitor::stop() {
  if (!running_.exchange(false)) return;
  if (listener_.fd >= 0) {
    net::shutdown_socket(listener_.fd);
    net::close_socket(listener_.fd);
  }
  if (listen_thread_.joinable()) listen_thread_.join();
  if (scrape_thread_.joinable()) scrape_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  listener_ = net::Listener{};
}

void Monitor::scrape_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    tick(wall_ms());
    // Sleep in short slices so stop() is prompt at multi-second intervals.
    std::uint64_t left = config_.interval_ms;
    while (left > 0 && running_.load(std::memory_order_relaxed)) {
      const std::uint64_t slice = left < 50 ? left : 50;
      sleep_ms(slice);
      left -= slice;
    }
  }
}

void Monitor::listen_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    std::optional<int> fd = net::accept_connection(listener_.fd);
    if (!fd.has_value()) break;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!running_.load(std::memory_order_relaxed)) {
      net::close_socket(*fd);
      break;
    }
    conn_threads_.emplace_back([this, fd = *fd] { serve_connection(fd); });
  }
}

void Monitor::serve_connection(int fd) {
  FrameDecoder decoder;
  bool greeted = false;
  try {
    while (auto frame = net::read_frame(fd, decoder)) {
      require_hello_first(greeted, frame->type);
      switch (frame->type) {
        case FrameType::Hello: {
          (void)HelloMsg::decode(*frame);
          greeted = true;
          net::write_frame(fd, HelloMsg{}.to_frame(FrameType::HelloAck));
          break;
        }
        case FrameType::HealthRequest: {
          (void)HealthRequestMsg::decode(*frame);
          net::write_frame(fd, to_wire(report()).to_frame());
          break;
        }
        case FrameType::MetricsRequest: {
          (void)MetricsRequestMsg::decode(*frame);
          MetricsResponseMsg reply;
          reply.snapshot = obs::MetricsRegistry::instance().snapshot();
          net::write_frame(fd, reply.to_frame());
          break;
        }
        default: {
          ErrorReplyMsg err{WireErrorCode::Internal,
                            "monitor: unsupported frame type"};
          net::write_frame(fd, err.to_frame());
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    // Misbehaving peer: report why (best effort, the peer may be gone),
    // drop the connection, keep serving others.
    try {
      net::write_frame(fd, ErrorReplyMsg{WireErrorCode::BadFrame, e.what()}
                               .to_frame());
    } catch (...) {
    }
  }
  net::shutdown_socket(fd);
  net::close_socket(fd);
}

HealthResponseMsg Monitor::to_wire(const HealthReport& report) {
  HealthResponseMsg msg;
  msg.overall = static_cast<std::uint8_t>(report.overall);
  msg.evaluated_at_ms = report.evaluated_at_ms;
  msg.objectives.reserve(report.objectives.size());
  for (const ObjectiveStatus& o : report.objectives) {
    WireObjectiveHealth wire;
    wire.name = o.name;
    wire.state = static_cast<std::uint8_t>(o.state);
    wire.fast_burn_micro = burn_to_micro(o.fast_burn);
    wire.slow_burn_micro = burn_to_micro(o.slow_burn);
    wire.detail = o.detail;
    msg.objectives.push_back(std::move(wire));
  }
  msg.endpoints.reserve(report.endpoints.size());
  for (const EndpointStatus& e : report.endpoints) {
    WireEndpointHealth wire;
    wire.name = e.name;
    wire.endpoint = e.endpoint;
    wire.state = static_cast<std::uint8_t>(e.state);
    wire.age_ms = e.last_ok_ms != 0 &&
                          report.evaluated_at_ms >= e.last_ok_ms
                      ? report.evaluated_at_ms - e.last_ok_ms
                      : 0;
    wire.scrapes = e.scrapes;
    wire.failures = e.failures;
    msg.endpoints.push_back(std::move(wire));
  }
  return msg;
}

HealthReport Monitor::from_wire(const HealthResponseMsg& msg) {
  HealthReport report;
  report.overall = static_cast<AlertState>(msg.overall);
  report.evaluated_at_ms = msg.evaluated_at_ms;
  report.objectives.reserve(msg.objectives.size());
  for (const WireObjectiveHealth& wire : msg.objectives) {
    ObjectiveStatus o;
    o.name = wire.name;
    o.state = static_cast<AlertState>(wire.state);
    o.fast_burn = static_cast<double>(wire.fast_burn_micro) / 1e6;
    o.slow_burn = static_cast<double>(wire.slow_burn_micro) / 1e6;
    o.detail = wire.detail;
    report.objectives.push_back(std::move(o));
  }
  report.endpoints.reserve(msg.endpoints.size());
  for (const WireEndpointHealth& wire : msg.endpoints) {
    EndpointStatus e;
    e.name = wire.name;
    e.endpoint = wire.endpoint;
    e.state = static_cast<EndpointState>(wire.state);
    e.last_ok_ms = e.state != EndpointState::Never &&
                           msg.evaluated_at_ms >= wire.age_ms
                       ? msg.evaluated_at_ms - wire.age_ms
                       : 0;
    e.scrapes = wire.scrapes;
    e.failures = wire.failures;
    report.endpoints.push_back(std::move(e));
  }
  return report;
}

std::string Monitor::render_text(const HealthReport& report,
                                 std::uint64_t now_ms) {
  std::ostringstream out;
  char line[256];
  const std::uint64_t age =
      now_ms >= report.evaluated_at_ms ? now_ms - report.evaluated_at_ms : 0;
  std::snprintf(line, sizeof(line),
                "overall: %-4s  (evaluated %" PRIu64 " ms ago)\n",
                alert_state_name(report.overall), age);
  out << line;
  out << "objectives:\n";
  for (const ObjectiveStatus& o : report.objectives) {
    std::snprintf(line, sizeof(line), "  %-16s %-4s  %s\n", o.name.c_str(),
                  alert_state_name(o.state), o.detail.c_str());
    out << line;
  }
  out << "endpoints:\n";
  for (const EndpointStatus& e : report.endpoints) {
    const std::uint64_t last_age =
        e.last_ok_ms != 0 && now_ms >= e.last_ok_ms ? now_ms - e.last_ok_ms
                                                    : 0;
    std::snprintf(line, sizeof(line),
                  "  %-16s %-5s %-21s age %" PRIu64 " ms  scrapes %" PRIu64
                  "  failures %" PRIu64 "\n",
                  e.name.c_str(), endpoint_state_name(e.state),
                  e.endpoint.c_str(), last_age, e.scrapes, e.failures);
    out << line;
  }
  return out.str();
}

std::string Monitor::render_json(const HealthReport& report) {
  std::ostringstream out;
  out << "{\"overall\":\"" << alert_state_name(report.overall)
      << "\",\"evaluated_at_ms\":" << report.evaluated_at_ms
      << ",\"objectives\":[";
  for (std::size_t i = 0; i < report.objectives.size(); ++i) {
    const ObjectiveStatus& o = report.objectives[i];
    if (i != 0) out << ",";
    out << "{\"name\":\"";
    json_escape_into(out, o.name);
    out << "\",\"state\":\"" << alert_state_name(o.state)
        << "\",\"fast_burn\":" << o.fast_burn
        << ",\"slow_burn\":" << o.slow_burn << ",\"detail\":\"";
    json_escape_into(out, o.detail);
    out << "\"}";
  }
  out << "],\"endpoints\":[";
  for (std::size_t i = 0; i < report.endpoints.size(); ++i) {
    const EndpointStatus& e = report.endpoints[i];
    if (i != 0) out << ",";
    out << "{\"name\":\"";
    json_escape_into(out, e.name);
    out << "\",\"endpoint\":\"";
    json_escape_into(out, e.endpoint);
    out << "\",\"state\":\"" << endpoint_state_name(e.state)
        << "\",\"last_ok_ms\":" << e.last_ok_ms
        << ",\"scrapes\":" << e.scrapes << ",\"failures\":" << e.failures
        << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace bbmg::monitor
