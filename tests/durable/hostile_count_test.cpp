// Count fields in hostile input: every count-prefixed list a decoder reads
// from a socket or a state file is checked against the bytes that remain
// before anything is reserved for it.  Each case below is a header-only
// input whose count is the largest its cap admits; decoding must fail with
// the count check's own error, before the elements are read.  Where the
// allocation shim is compiled in (not under sanitizers), the decode must
// also allocate less than 1 MiB.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/online_learner.hpp"
#include "durable/checksum.hpp"
#include "durable/wal.hpp"
#include "obs/alloc_track.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/protocol.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg {
namespace {

constexpr const char* kCountError = "binary codec: truncated input (count ";

struct HostileCase {
  const char* name;
  std::function<void()> decode;  // must throw bbmg::Error ...
  const char* error = kCountError;  // ... whose message starts with this
};

using Bytes = std::vector<std::uint8_t>;

std::function<void()> frame_case(FrameType type, Bytes payload,
                                 void (*decode)(const Frame&)) {
  return [type, payload = std::move(payload), decode] {
    decode(Frame{type, payload});
  };
}

Bytes u32s(std::initializer_list<std::size_t> values) {
  Bytes out;
  for (const std::size_t v : values) {
    append_u32(out, static_cast<std::uint32_t>(v));
  }
  return out;
}

std::vector<HostileCase> hostile_cases() {
  std::vector<HostileCase> cases;
  cases.push_back({"events", frame_case(FrameType::Events,
                                        u32s({7, kMaxEventsPerPeriod}),
                                        [](const Frame& f) {
                                          (void)EventsMsg::decode(f);
                                        })});
  {
    Bytes p = u32s({7});
    append_u8(p, 2);  // probe present
    append_u32(p, kMaxEventsPerPeriod);
    cases.push_back({"probe", frame_case(FrameType::Query, p,
                                         [](const Frame& f) {
                                           (void)QueryMsg::decode(f);
                                         })});
  }
  {
    Bytes p;
    append_u64(p, 1);  // server_now_ns
    append_u64(p, 0);  // drops
    append_u32(p, kMaxWireSpans);
    cases.push_back({"spans", frame_case(FrameType::TraceDumpResponse, p,
                                         [](const Frame& f) {
                                           (void)TraceDumpResponseMsg::decode(
                                               f);
                                         })});
  }
  {
    Bytes p;
    append_u64(p, 1);  // epoch
    append_u32(p, kMaxWireShards);
    cases.push_back({"shards", frame_case(FrameType::ClusterMapResponse, p,
                                          [](const Frame& f) {
                                            (void)ClusterMapResponseMsg::decode(
                                                f);
                                          })});
  }
  const auto metrics = [](const Frame& f) {
    (void)MetricsResponseMsg::decode(f);
  };
  cases.push_back({"metric counters",
                   frame_case(FrameType::MetricsResponse,
                              u32s({kMaxWireMetrics}), metrics)});
  cases.push_back({"metric gauges",
                   frame_case(FrameType::MetricsResponse,
                              u32s({0, kMaxWireMetrics}), metrics)});
  cases.push_back({"metric histograms",
                   frame_case(FrameType::MetricsResponse,
                              u32s({0, 0, kMaxWireMetrics}), metrics)});
  {
    Bytes p = u32s({0, 0, 1});
    append_string(p, "h");
    append_u32(p, kMaxWireHistogramBuckets);
    // The +Inf count, sum and count: enough for the one histogram, not
    // for its buckets.
    for (int i = 0; i < 3; ++i) append_u64(p, 0);
    cases.push_back({"metric histogram buckets",
                     frame_case(FrameType::MetricsResponse, p, metrics)});
  }
  const auto health = [](const Frame& f) {
    (void)HealthResponseMsg::decode(f);
  };
  {
    Bytes p;
    append_u8(p, 0);   // overall
    append_u64(p, 1);  // evaluated_at_ms
    Bytes objectives = p;
    append_u32(objectives, kMaxWireObjectives);
    cases.push_back(
        {"health objectives",
         frame_case(FrameType::HealthResponse, objectives, health)});
    append_u32(p, 0);
    append_u32(p, kMaxWireEndpoints);
    cases.push_back({"health endpoints",
                     frame_case(FrameType::HealthResponse, p, health)});
  }
  {
    Bytes p = u32s({7});
    for (int i = 0; i < 7 + 2; ++i) append_u64(p, 0);  // stats, hist sum+count
    append_u32(p, 64);  // the bucket cap: a power-of-two ladder over u64
    cases.push_back({"vspace histogram buckets",
                     frame_case(FrameType::VspaceResponse, p,
                                [](const Frame& f) {
                                  (void)VspaceResponseMsg::decode(f);
                                })});
  }
  {
    // A WAL record with a good CRC whose payload is only the count.  The
    // scan treats any payload error as a torn tail; surface that.
    Bytes wal;
    append_u32(wal, durable::kWalMagic);
    append_u16(wal, durable::kWalVersion);
    append_u32(wal, 7);  // session
    append_u64(wal, 0);  // base_seq
    const Bytes payload = u32s({kMaxEventsPerPeriod});
    append_u64(wal, 1);
    append_u32(wal, static_cast<std::uint32_t>(payload.size()));
    append_u32(wal, durable::crc32(payload));
    wal.insert(wal.end(), payload.begin(), payload.end());
    cases.push_back({"WAL payload",
                     [wal] {
                       const durable::WalScan scan = durable::scan_wal(wal);
                       if (scan.torn_tail && scan.records.empty()) {
                         raise("WAL record rejected as torn");
                       }
                     },
                     "WAL record rejected as torn"});
  }
  {
    // One task, bound 1, a 1-byte history, then the frontier size.
    Bytes state = u32s({1, 1});
    append_u8(state, 0);
    append_u32(state, 1u << 20);
    cases.push_back({"learner frontier", [state] {
                       ByteReader r(state.data(), state.size());
                       (void)OnlineLearner::decode_state(r);
                     }});
  }
  {
    // A valid fresh learner state ends with frontier_after_period's count
    // (0); claim the period cap instead.
    Bytes state;
    OnlineLearner(2, OnlineConfig{1}).encode_state(state);
    state.resize(state.size() - 4);
    append_u32(state, kMaxPeriods);
    cases.push_back({"learner frontier_after_period", [state] {
                       ByteReader r(state.data(), state.size());
                       (void)OnlineLearner::decode_state(r);
                     }});
  }
  {
    Bytes state;
    append_u64(state, 0);  // seen
    append_u64(state, 0);  // quarantined
    append_u64(state, 0);  // repairs
    append_u8(state, 0);   // health
    append_u32(state, 1u << 26);
    cases.push_back({"robust defects", [state] {
                       ByteReader r(state.data(), state.size());
                       (void)RobustOnlineLearner::decode_state({"a", "b"}, {},
                                                               r);
                     }});
  }
  return cases;
}

TEST(HostileCount, EveryCountIsBoundedByTheRemainingBytes) {
  for (const HostileCase& c : hostile_cases()) {
    SCOPED_TRACE(c.name);
    const obs::AllocCounters before = obs::thread_alloc_counters();
    try {
      c.decode();
      ADD_FAILURE() << "decoded without error";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.error, 0), 0u) << e.what();
    }
    const obs::AllocCounters spent =
        obs::alloc_delta(before, obs::thread_alloc_counters());
    if (obs::kAllocTrackEnabled) {
      EXPECT_LT(spent.bytes, 1u << 20);
    }
  }
}

}  // namespace
}  // namespace bbmg
