// bbmg_client: replay a recorded trace against a running bbmg_served and
// fetch the learned model back — the socket twin of `trace_tool learn`.
//
//   bbmg_client replay <host> <port> <in.trace> [out.model] [bound]
//       stream every period of <in.trace> (text or binary format) into a
//       fresh session, drain, fetch the model; optionally save it in the
//       matrix_io text format and compare-ready for the offline pipeline.
//   bbmg_client query <host> <port> <session-id>
//       fetch the current model of an existing session.
//   bbmg_client check <host> <port> <session-id> <in.trace>
//       conformance-check every period of <in.trace> against the served
//       model of <session-id> (probe queries; no learning).
//   bbmg_client metrics <host> <port> [--json]
//       fetch the server's observability snapshot and print it in
//       Prometheus text exposition format (or one JSON object).
//   bbmg_client health <host> <port> [--json]
//       fetch a bbmg_monitor's SLO verdict (overall state, per-objective
//       burn rates, per-endpoint freshness); exits 0/1/2 for ok/warn/page.
//   bbmg_client vspace <host> <port> <session-id> [--json]
//       live version-space introspection of a session:
//       hypothesis count and peak, estimated frontier bytes, heap churn
//       charged to learning, and the branching-factor / scan-length
//       histograms sampled inside the learner.
//   bbmg_client resume <host> <port> <session-id>
//       report the session's durable high-water mark (the sequence number
//       below which every period survives a server crash).
//   bbmg_client map <host> <port>
//       fetch any cluster node's map: epoch plus each shard's primary and
//       follower endpoints (the node must run with --cluster-map).
//   bbmg_client trace <host> <port> [--chrome [out.json]]
//                     [--merge <spans.bin>] [--flight]
//       pull the server's causal span ring.  --chrome writes a Chrome
//       about://tracing JSON (default bbmg_trace.json); --merge folds in
//       client-side spans saved by `replay --trace`, producing one
//       timeline with flow arrows linking the two processes; --flight
//       also prints the server's flight-recorder dump.
//
// replay streams through the ResilientClient: periods carry sequence
// numbers, and connection failures retry with exponential backoff, resume
// the session, and resend whatever the server had not yet made durable.
// With `replay ... --trace <spans.bin>` every period send mints a trace
// id, carries it to the server as a TraceContext envelope, and the client's own
// spans are saved to <spans.bin> — already shifted onto the server's
// clock, so `trace --merge` needs no cross-file time math.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "common/error.hpp"
#include "lattice/matrix_io.hpp"
#include "monitor/monitor.hpp"
#include "obs/exposition.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "serve/resilient_client.hpp"
#include "trace/binary_codec.hpp"
#include "trace/serialize.hpp"

using namespace bbmg;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bbmg_client replay <host> <port> <in.trace> [out.model] "
               "[bound] [--trace <spans.bin>]\n"
               "  bbmg_client query <host> <port> <session-id>\n"
               "  bbmg_client check <host> <port> <session-id> <in.trace>\n"
               "  bbmg_client metrics <host> <port> [--json]\n"
               "  bbmg_client health <host> <port> [--json]\n"
               "  bbmg_client vspace <host> <port> <session-id> [--json]\n"
               "  bbmg_client resume <host> <port> <session-id>\n"
               "  bbmg_client map <host> <port>\n"
               "  bbmg_client trace <host> <port> [--chrome [out.json]] "
               "[--merge <spans.bin>] [--flight]\n");
  return 2;
}

/// Export pids of the merged timeline: client spans under 1, server under 2.
constexpr std::uint32_t kClientPid = 1;
constexpr std::uint32_t kServerPid = 2;

std::vector<obs::ExportSpan> wire_to_export(const std::vector<WireSpan>& spans,
                                            std::uint32_t pid) {
  std::vector<obs::ExportSpan> out;
  out.reserve(spans.size());
  for (const WireSpan& s : spans) {
    obs::ExportSpan e;
    e.name = s.name;
    e.pid = pid;
    e.tid = s.tid;
    e.start_ns = s.start_ns;
    e.duration_ns = s.duration_ns;
    e.trace_id = s.trace_id;
    e.span_id = s.span_id;
    e.parent_id = s.parent_id;
    e.flow = s.flow;
    e.cycles = s.cycles;
    e.instructions = s.instructions;
    e.cache_misses = s.cache_misses;
    e.branch_misses = s.branch_misses;
    out.push_back(std::move(e));
  }
  return out;
}

/// Client-side spans travel between processes (replay -> trace) as one
/// TraceDumpResponse frame in a file — same codec, same bounds checks.
void save_spans_file(const std::string& path, const TraceDumpResponseMsg& msg) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, msg.to_frame());
  std::ofstream ofs(path, std::ios::binary);
  BBMG_REQUIRE(ofs.good(), "cannot open span file for writing: " + path);
  ofs.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  BBMG_REQUIRE(ofs.good(), "failed writing span file: " + path);
}

TraceDumpResponseMsg load_spans_file(const std::string& path) {
  std::ifstream ifs(path, std::ios::binary);
  BBMG_REQUIRE(ifs.good(), "cannot open span file: " + path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(ifs)),
                          std::istreambuf_iterator<char>());
  FrameDecoder decoder;
  decoder.feed(reinterpret_cast<const std::uint8_t*>(bytes.data()),
               bytes.size());
  std::optional<Frame> frame = decoder.next();
  BBMG_REQUIRE(frame.has_value() &&
                   frame->type == FrameType::TraceDumpResponse,
               "span file does not hold a trace dump: " + path);
  return TraceDumpResponseMsg::decode(*frame);
}

/// Load a trace in either format: binary if the BBTC magic matches, text
/// otherwise.
Trace load_any_trace(const std::string& path) {
  try {
    return load_trace_file_binary(path);
  } catch (const Error&) {
    return load_trace_file(path);
  }
}

void print_snapshot(const WireSnapshot& snap,
                    const std::vector<std::string>& names) {
  std::printf("session %u: %llu periods seen, %llu learned, %llu "
              "quarantined, %llu repairs (health: %s)\n",
              snap.session,
              static_cast<unsigned long long>(snap.periods_seen),
              static_cast<unsigned long long>(snap.periods_learned),
              static_cast<unsigned long long>(snap.periods_quarantined),
              static_cast<unsigned long long>(snap.repairs),
              std::string(health_state_name(snap.health)).c_str());
  std::printf("model: %u hypotheses (%s), dLUB weight %llu\n",
              snap.num_hypotheses, snap.converged ? "converged" : "open",
              static_cast<unsigned long long>(snap.weight));
  std::printf("%s", snap.lub.to_table(names).c_str());
}

int cmd_replay(int argc, char** argv) {
  std::string span_file;
  std::vector<const char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      span_file = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 3) return usage();
  const std::string host = positional[0];
  const auto port =
      static_cast<std::uint16_t>(std::strtoul(positional[1], nullptr, 10));
  const Trace trace = load_any_trace(positional[2]);
  const std::uint32_t bound =
      positional.size() > 4
          ? static_cast<std::uint32_t>(std::strtoul(positional[4], nullptr, 10))
          : 16;

  ResilientClient client;
  if (!span_file.empty()) client.set_tracing(true);
  client.connect(host, port);
  const std::uint32_t session = client.open_session(trace.task_names(), bound);
  std::size_t sent = 0;
  for (const Period& p : trace.periods()) {
    client.send_period(session, p.to_events());
    ++sent;
  }
  const std::uint64_t durable = client.flush(session);
  std::printf("streamed %zu periods (%zu event pairs) to session %u "
              "(durable through seq %llu)\n",
              sent, trace.total_event_pairs(), session,
              static_cast<unsigned long long>(durable));
  const WireSnapshot snap = client.query(session, /*drain=*/true);
  print_snapshot(snap, trace.task_names());
  if (positional.size() > 3) {
    save_matrix_file(positional[3], snap.lub, trace.task_names());
    std::printf("saved dLUB model -> %s\n", positional[3]);
  }
  if (!span_file.empty()) {
    // Save this process's spans pre-shifted onto the server's clock so a
    // later `trace --merge` never has to reconcile two steady_clock
    // epochs.  The drain=false probe costs one round trip and tells us
    // the server's "now"; offset = server_now - local_now aligns the two
    // timelines to within that round trip's latency.
    const TraceDumpResponseMsg probe =
        client.fetch_trace_dump(/*drain=*/false);
    const std::int64_t offset =
        static_cast<std::int64_t>(probe.server_now_ns) -
        static_cast<std::int64_t>(obs::now_ns());
    TraceDumpResponseMsg out;
    out.server_now_ns = probe.server_now_ns;
    out.drops = obs::SpanRing::instance().dropped();
    const std::vector<obs::SpanRecord> local =
        obs::SpanRing::instance().drain();
    out.spans.reserve(local.size());
    for (const obs::SpanRecord& r : local) {
      WireSpan w;
      w.name = r.name != nullptr ? r.name : "";
      w.tid = r.thread;
      const std::int64_t shifted = static_cast<std::int64_t>(r.start_ns) + offset;
      w.start_ns = shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
      w.duration_ns = r.duration_ns;
      w.trace_id = r.trace_id;
      w.span_id = r.span_id;
      w.parent_id = r.parent_id;
      w.flow = r.flow;
      w.cycles = r.cycles;
      w.instructions = r.instructions;
      w.cache_misses = r.cache_misses;
      w.branch_misses = r.branch_misses;
      out.spans.push_back(std::move(w));
    }
    save_spans_file(span_file, out);
    std::printf("saved %zu client spans -> %s (server-clock aligned)\n",
                out.spans.size(), span_file.c_str());
  }
  return 0;
}

int cmd_query(int argc, char** argv) {
  if (argc < 5) return usage();
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const auto session =
      static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  const WireSnapshot snap = client.query(session, /*drain=*/false);
  print_snapshot(snap, {});
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 6) return usage();
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const auto session =
      static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  const Trace trace = load_any_trace(argv[5]);
  std::size_t conforming = 0, violating = 0, unverifiable = 0;
  for (const Period& p : trace.periods()) {
    const std::vector<Event> probe = p.to_events();
    const WireSnapshot snap = client.query(session, /*drain=*/false, &probe);
    switch (snap.verdict) {
      case ProbeVerdict::Conforms:
        ++conforming;
        break;
      case ProbeVerdict::Violates:
        ++violating;
        break;
      default:
        ++unverifiable;
        break;
    }
  }
  std::printf("%zu periods: %zu conform, %zu violate, %zu unverifiable\n",
              trace.num_periods(), conforming, violating, unverifiable);
  return violating == 0 ? 0 : 1;
}

int cmd_metrics(int argc, char** argv) {
  if (argc < 4) return usage();
  const bool json = argc > 4 && std::strcmp(argv[4], "--json") == 0;
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const obs::MetricsSnapshot snap = client.fetch_metrics();
  const std::string text =
      json ? obs::to_json(snap) : obs::to_prometheus(snap);
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (json) std::fputc('\n', stdout);
  return 0;
}

int cmd_health(int argc, char** argv) {
  if (argc < 4) return usage();
  const bool json = argc > 4 && std::strcmp(argv[4], "--json") == 0;
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const monitor::HealthReport report =
      monitor::Monitor::from_wire(client.fetch_health());
  if (json) {
    std::printf("%s\n", monitor::Monitor::render_json(report).c_str());
  } else {
    std::printf("%s", monitor::Monitor::render_text(
                          report, monitor::Monitor::wall_ms())
                          .c_str());
  }
  // Mirror the monitor's own exit convention: ok/warn/page -> 0/1/2.
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

void print_vspace_hist(const char* title, const VspaceHistogramSnapshot& h) {
  std::printf("%s: mean %.2f over %llu samples\n", title, h.mean(),
              static_cast<unsigned long long>(h.count));
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (i < h.bounds.size()) {
      std::printf("  <= %-5llu %llu\n",
                  static_cast<unsigned long long>(h.bounds[i]),
                  static_cast<unsigned long long>(h.counts[i]));
    } else {
      std::printf("  >  %-5llu %llu\n",
                  static_cast<unsigned long long>(h.bounds.back()),
                  static_cast<unsigned long long>(h.counts[i]));
    }
  }
}

void append_vspace_hist_json(std::string& out, const char* key,
                             const VspaceHistogramSnapshot& h) {
  out += "\"";
  out += key;
  out += "\":{\"sum\":" + std::to_string(h.sum) +
         ",\"count\":" + std::to_string(h.count) + ",\"buckets\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"le\":";
    out += i < h.bounds.size() ? std::to_string(h.bounds[i]) : "\"inf\"";
    out += ",\"n\":" + std::to_string(h.counts[i]) + "}";
  }
  out += "]}";
}

int cmd_vspace(int argc, char** argv) {
  if (argc < 5) return usage();
  const bool json = argc > 5 && std::strcmp(argv[5], "--json") == 0;
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const auto session =
      static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  const VspaceResponseMsg v = client.fetch_vspace(session);
  const VspaceSnapshot& s = v.stats;
  if (json) {
    std::string out = "{\"session\":" + std::to_string(v.session) +
                      ",\"periods\":" + std::to_string(s.periods) +
                      ",\"hypotheses\":" + std::to_string(s.hypotheses) +
                      ",\"peak_hypotheses\":" +
                      std::to_string(s.peak_hypotheses) +
                      ",\"frontier_bytes\":" +
                      std::to_string(s.frontier_bytes) +
                      ",\"peak_frontier_bytes\":" +
                      std::to_string(s.peak_frontier_bytes) +
                      ",\"alloc_bytes\":" + std::to_string(s.alloc_bytes) +
                      ",\"allocs\":" + std::to_string(s.allocs) + ",";
    append_vspace_hist_json(out, "branching", s.branching);
    out += ",";
    append_vspace_hist_json(out, "scan", s.scan);
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }
  std::printf("session %u version space (%llu periods sampled):\n", v.session,
              static_cast<unsigned long long>(s.periods));
  std::printf("  hypotheses: %llu (peak %llu)\n",
              static_cast<unsigned long long>(s.hypotheses),
              static_cast<unsigned long long>(s.peak_hypotheses));
  std::printf("  frontier: ~%llu bytes (peak ~%llu)\n",
              static_cast<unsigned long long>(s.frontier_bytes),
              static_cast<unsigned long long>(s.peak_frontier_bytes));
  std::printf("  learning heap churn: %llu bytes over %llu allocations\n",
              static_cast<unsigned long long>(s.alloc_bytes),
              static_cast<unsigned long long>(s.allocs));
  print_vspace_hist("branching factor per message", s.branching);
  print_vspace_hist("candidate scan length per message", s.scan);
  return 0;
}

int cmd_resume(int argc, char** argv) {
  if (argc < 5) return usage();
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const auto session =
      static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  const std::uint64_t high_water = client.resume(session);
  std::printf("session %u: durable high-water mark %llu\n", session,
              static_cast<unsigned long long>(high_water));
  return 0;
}

int cmd_map(int argc, char** argv) {
  if (argc < 4) return usage();
  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const cluster::ClusterMap map =
      cluster::ClusterMap::from_wire(client.fetch_cluster_map());
  std::printf("cluster map epoch %llu, %zu shards\n",
              static_cast<unsigned long long>(map.epoch), map.shards.size());
  for (std::size_t s = 0; s < map.shards.size(); ++s) {
    const cluster::ClusterShard& shard = map.shards[s];
    std::printf("  shard %zu: primary %s%s%s\n", s,
                shard.primary.str().c_str(),
                shard.has_follower() ? ", follower " : "",
                shard.has_follower() ? shard.follower.str().c_str() : "");
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) return usage();
  bool chrome = false;
  bool flight = false;
  std::string out_json = "bbmg_trace.json";
  std::string merge_file;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome = true;
      // --chrome takes an optional output path; a following token that is
      // not a flag is the path.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        out_json = argv[++i];
      }
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      if (i + 1 >= argc) return usage();
      merge_file = argv[++i];
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight = true;
    } else {
      return usage();
    }
  }

  ServeClient client;
  client.connect(argv[2],
                 static_cast<std::uint16_t>(std::strtoul(argv[3], nullptr, 10)));
  const TraceDumpResponseMsg dump =
      client.fetch_trace_dump(/*drain=*/true, flight);
  std::printf("server: %zu spans (%llu evicted before fetch)\n",
              dump.spans.size(),
              static_cast<unsigned long long>(dump.drops));

  std::vector<obs::ExportSpan> merged = wire_to_export(dump.spans, kServerPid);
  if (!merge_file.empty()) {
    const TraceDumpResponseMsg local = load_spans_file(merge_file);
    std::printf("merged: %zu client spans from %s\n", local.spans.size(),
                merge_file.c_str());
    std::vector<obs::ExportSpan> client_spans =
        wire_to_export(local.spans, kClientPid);
    merged.insert(merged.end(), client_spans.begin(), client_spans.end());
  }

  if (chrome) {
    obs::write_chrome_trace(merged, out_json);
    std::printf("wrote Chrome trace (%zu spans) -> %s\n", merged.size(),
                out_json.c_str());
  } else {
    for (const obs::ExportSpan& s : merged) {
      std::printf("  [%s pid=%u tid=%u] %-22s start=%llu dur=%lluus "
                  "trace=%016llx span=%016llx parent=%016llx%s\n",
                  s.pid == kServerPid ? "server" : "client", s.pid, s.tid,
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.duration_ns / 1000),
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id),
                  s.flow == 1 ? " flow-out" : s.flow == 2 ? " flow-in" : "");
    }
  }
  if (flight && !dump.flight.empty()) {
    std::printf("--- server flight recorder ---\n%s", dump.flight.c_str());
    if (dump.flight.back() != '\n') std::fputc('\n', stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "replay") == 0) return cmd_replay(argc, argv);
    if (std::strcmp(argv[1], "query") == 0) return cmd_query(argc, argv);
    if (std::strcmp(argv[1], "check") == 0) return cmd_check(argc, argv);
    if (std::strcmp(argv[1], "metrics") == 0) return cmd_metrics(argc, argv);
    if (std::strcmp(argv[1], "health") == 0) return cmd_health(argc, argv);
    if (std::strcmp(argv[1], "vspace") == 0) return cmd_vspace(argc, argv);
    if (std::strcmp(argv[1], "resume") == 0) return cmd_resume(argc, argv);
    if (std::strcmp(argv[1], "map") == 0) return cmd_map(argc, argv);
    if (std::strcmp(argv[1], "trace") == 0) return cmd_trace(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbmg_client: error: %s\n", e.what());
    return 2;
  }
  return usage();
}
