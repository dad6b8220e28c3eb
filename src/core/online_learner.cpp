#include "core/online_learner.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "core/learner_metrics.hpp"
#include "core/matrix_cells.hpp"
#include "core/post_process.hpp"
#include "core/vspace_stats.hpp"
#include "obs/span.hpp"

namespace bbmg {

namespace {

/// The bounded, weight-ascending hypothesis list of §3.2: adding a
/// hypothesis beyond the bound merges the two least-weight (most specific)
/// members into their least upper bound, with the union of their
/// assumption sets (see DESIGN.md §2 for this choice).
///
/// One list serves a whole period, and children are built in recycled
/// storage.  Retired frontier members, dropped duplicates and merged-away
/// hypotheses are kept as spares (at most bound + 1), and a child is
/// copy-assigned into a spare, which reuses its matrix and bitset
/// capacity: once the spares are warm, a child allocates nothing.
class BoundedList {
 public:
  BoundedList(std::size_t bound, LearnStats& stats)
      : bound_(bound), stats_(stats) {}

  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// A copy of `parent` in spare storage, to assume() on and then add.
  Hypothesis& child_of(const Hypothesis& parent) {
    if (spares_.empty()) {
      spares_.push_back(parent);
    } else {
      spares_.back() = parent;
    }
    return spares_.back();
  }

  /// Adds the child last returned by child_of.
  void add_child() {
    Hypothesis h = std::move(spares_.back());
    spares_.pop_back();
    insert(std::move(h));
    while (items_.size() > bound_) merge_two_least();
  }

  /// Makes the list the new frontier; the old frontier's members become
  /// spares and the list is left empty for the next message.
  void take_into(std::vector<Hypothesis>& frontier) {
    frontier.swap(items_);
    for (Hypothesis& h : items_) recycle(std::move(h));
    items_.clear();
  }

 private:
  /// Set semantics: duplicates would burn bound slots for nothing (the
  /// exact learner unifies eagerly too).  The duplicate scan is linear and
  /// compares hypotheses only on a weight tie.  Gating it on a hash merges
  /// identically and made offline bound-64 learning 11-15x faster, but the
  /// offline benchmark keeps every trace it learns (~26 KB each), so the
  /// faster learner fit 35-45 traces in its 20 s window instead of 4 and
  /// its peak RSS rose 18-25%, past the 10% bound (4-core Xeon, GCC 12).
  /// The scan stays until that benchmark stops tying peak RSS to learner
  /// speed (ROADMAP).  Cache-line aligned like observe_period, for the
  /// same reason.
  [[gnu::aligned(64)]] void insert(Hypothesis h) {
    const std::uint64_t weight = h.d.weight();
    for (const Hypothesis& x : items_) {
      if (x.d.weight() == weight && x == h) {
        recycle(std::move(h));
        return;
      }
    }
    auto it = std::upper_bound(
        items_.begin(), items_.end(), weight,
        [](std::uint64_t w, const Hypothesis& x) { return w < x.d.weight(); });
    items_.insert(it, std::move(h));
  }

  void merge_two_least() {
    BBMG_ASSERT(items_.size() >= 2, "merge requires two hypotheses");
    Hypothesis merged = std::move(items_[0]);
    merged.d.join(items_[1].d);
    merged.used.unite(items_[1].used);
    recycle(std::move(items_[1]));
    items_.erase(items_.begin(), items_.begin() + 2);
    ++stats_.merges;
    insert(std::move(merged));
  }

  void recycle(Hypothesis&& h) {
    if (spares_.size() <= bound_) spares_.push_back(std::move(h));
  }

  std::size_t bound_;
  LearnStats& stats_;
  std::vector<Hypothesis> items_;
  std::vector<Hypothesis> spares_;
};

}  // namespace

OnlineLearner::OnlineLearner(std::size_t num_tasks, const OnlineConfig& config)
    : num_tasks_(num_tasks), config_(config), history_(num_tasks) {
  BBMG_REQUIRE(num_tasks >= 1, "learner needs at least one task");
  BBMG_REQUIRE(config.bound >= 1, "heuristic bound must be >= 1");
  frontier_.emplace_back(num_tasks);
  stats_.peak_hypotheses = 1;
}

// Starts on a cache line so its inner loops sit at the same offsets in
// every binary, whatever code the linker places before it.  Left to the
// default 16-byte alignment, a 32-byte shift of unrelated serve code made
// offline learning at bound 64 about 1.5x slower (4-core Xeon, GCC 12).
[[gnu::aligned(64)]] void OnlineLearner::observe_period(const Period& period) {
  LearnerMetrics& metrics = LearnerMetrics::get();
  obs::Span span(&metrics.period_latency_us, "learner.period");
  // Hot-path accounting stays in the plain LearnStats fields; the global
  // metrics are fed once per period from the stats deltas below.
  const std::uint64_t created0 = stats_.hypotheses_created;
  const std::uint64_t merges0 = stats_.merges;
  const std::uint64_t unexplained0 = stats_.unexplained_messages;
  // 1-in-stride periods are timed phase by phase; the rest pay one relaxed
  // fetch_add and no clock read.
  obs::PhaseProfiler::Unit profiled(learner_profiler());

  const PeriodCandidates pc(period, num_tasks_);
  profiled.lap(LearnerPhase::Enumerate);

  BoundedList list(config_.bound, stats_);
  for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
    ++stats_.messages_processed;
    const auto cands = pc.candidates(msg);
    if (vspace_stats_ != nullptr) {
      // Branching factor offered by this message, and the scan the loop
      // below performs (every frontier member against every candidate).
      vspace_stats_->on_message(
          cands.size(),
          static_cast<std::uint64_t>(frontier_.size()) * cands.size());
    }

    bool explained = false;
    if (config_.bound == 1 && frontier_.size() == 1) {
      // Bound 1 is a running LUB (Theorem 4).  The list would add the
      // message's k children one by one, each merged into the last:
      // siblings differ in `used`, so none is dropped as a duplicate, and
      // the k children end as their LUB after k - 1 merges.  That LUB is
      // H with every unused pair assumed, so assume them all in place.
      // A task runs at most once per period, so the pairs are distinct,
      // and only a mirrored pair (r,s) touches the cells of (s,r).  Every
      // write to d(a,b) adds a permit flag and, under the same
      // ran_without(a,b), the conditional flag; such writes commute, so
      // in place equals computing each child against the unmodified H.
      Hypothesis& h = frontier_.front();
      std::uint64_t children = 0;
      for (const CandidatePair& p : cands) {
        if (h.pair_used(p)) continue;
        h.assume(p, history_);
        ++children;
      }
      stats_.hypotheses_created += children;
      explained = children > 0;
      if (explained) stats_.merges += children - 1;
    } else {
      for (const Hypothesis& h : frontier_) {
        for (const CandidatePair& p : cands) {
          if (h.pair_used(p)) continue;
          list.child_of(h).assume(p, history_);
          ++stats_.hypotheses_created;
          list.add_child();
        }
      }
      explained = !list.empty();
      if (explained) list.take_into(frontier_);
    }
    // No hypothesis could explain this message (every candidate pair
    // already assumed).  The exact learner fails here; the bounded learner
    // keeps the current list unchanged — conservative, every member
    // remains an upper bound of a matching hypothesis.
    if (!explained) ++stats_.unexplained_messages;
    stats_.peak_hypotheses = std::max(stats_.peak_hypotheses, frontier_.size());
  }
  profiled.lap(LearnerPhase::Branch, pc.num_messages());

  post_process_period(frontier_, pc);
  profiled.lap(LearnerPhase::PostProcess);

  ++stats_.periods_processed;
  stats_.frontier_after_period.push_back(frontier_.size());
  history_.record_period(pc);
  profiled.lap(LearnerPhase::History);

  if (vspace_stats_ != nullptr) {
    vspace_stats_->on_period(frontier_.size(), approx_frontier_bytes());
  }

  metrics.periods.inc();
  metrics.messages.inc(pc.num_messages());
  metrics.branched.inc(stats_.hypotheses_created - created0);
  metrics.pruned.inc(stats_.merges - merges0);
  metrics.unexplained.inc(stats_.unexplained_messages - unexplained0);
  metrics.version_space_peak.set_max(
      static_cast<std::int64_t>(stats_.peak_hypotheses));
}

void OnlineLearner::observe_quarantined_period(
    const std::vector<bool>& observed) {
  BBMG_REQUIRE(observed.size() == num_tasks_,
               "observed-task mask must have one entry per task");
  history_.record_untrusted_period(observed);
  for (auto& h : frontier_) weaken_possibly_unmet_requirements(h, observed);
  remove_duplicates_and_redundant(frontier_);
  ++stats_.quarantined_periods;
  LearnerMetrics::get().quarantined.inc();
  if (vspace_stats_ != nullptr) {
    // Quarantined periods count too: weakening can shrink the frontier.
    vspace_stats_->on_period(frontier_.size(), approx_frontier_bytes());
  }
}

std::uint64_t OnlineLearner::approx_frontier_bytes() const {
  if (frontier_.empty()) return 0;
  // Every hypothesis has the same shape (n x n matrix, n^2-bit assumption
  // set), so the estimate is per-hypothesis footprint x frontier size.
  const Hypothesis& h = frontier_.front();
  const std::uint64_t per =
      static_cast<std::uint64_t>(sizeof(Hypothesis)) +
      static_cast<std::uint64_t>(num_tasks_) * num_tasks_ * sizeof(DepValue) +
      static_cast<std::uint64_t>(h.used.words().size()) * sizeof(std::uint64_t);
  return per * frontier_.size();
}

// -- durable state codec ---------------------------------------------------
//
// Layout (little-endian, validated against the binary-codec sanity caps):
//
//   u32 num_tasks | u32 bound
//   history: num_tasks^2 bytes (0/1 cells)
//   u32 nfrontier x { matrix: n^2 value bytes |
//                     bitset: u32 bits, u32 nwords, nwords x u64 }
//   stats: u64 periods, messages, peak, created, merges, unexplained,
//          quarantined | u64 wall_seconds (IEEE-754 bit pattern)
//   u32 nfap x u32 (frontier size after each period)

namespace {

/// Hypothesis-set cap for decode: far above any reachable bound, low
/// enough that a garbage count cannot drive a huge allocation.
constexpr std::size_t kMaxStateFrontier = 1u << 20;

}  // namespace

void OnlineLearner::encode_state(std::vector<std::uint8_t>& out) const {
  append_u32(out, static_cast<std::uint32_t>(num_tasks_));
  append_u32(out, static_cast<std::uint32_t>(config_.bound));
  for (const char c : history_.cells()) {
    append_u8(out, static_cast<std::uint8_t>(c != 0 ? 1 : 0));
  }
  append_u32(out, static_cast<std::uint32_t>(frontier_.size()));
  for (const Hypothesis& h : frontier_) {
    append_matrix_cells(out, h.d);
    append_u32(out, static_cast<std::uint32_t>(h.used.size()));
    append_u32(out, static_cast<std::uint32_t>(h.used.words().size()));
    for (const std::uint64_t w : h.used.words()) append_u64(out, w);
  }
  append_u64(out, stats_.periods_processed);
  append_u64(out, stats_.messages_processed);
  append_u64(out, stats_.peak_hypotheses);
  append_u64(out, stats_.hypotheses_created);
  append_u64(out, stats_.merges);
  append_u64(out, stats_.unexplained_messages);
  append_u64(out, stats_.quarantined_periods);
  std::uint64_t wall_bits = 0;
  static_assert(sizeof(wall_bits) == sizeof(stats_.wall_seconds));
  std::memcpy(&wall_bits, &stats_.wall_seconds, sizeof(wall_bits));
  append_u64(out, wall_bits);
  append_u32(out, static_cast<std::uint32_t>(stats_.frontier_after_period.size()));
  for (const std::size_t f : stats_.frontier_after_period) {
    append_u32(out, static_cast<std::uint32_t>(f));
  }
}

OnlineLearner OnlineLearner::decode_state(ByteReader& r) {
  const std::uint32_t n = r.read_u32();
  if (n == 0 || n > kMaxTasks) raise("learner state: task count out of range");
  const std::uint32_t bound = r.read_u32();
  if (bound == 0) raise("learner state: bound must be >= 1");
  OnlineConfig config;
  config.bound = bound;
  OnlineLearner learner(n, config);

  std::vector<char> cells(static_cast<std::size_t>(n) * n);
  for (char& c : cells) c = static_cast<char>(r.read_u8() != 0 ? 1 : 0);
  learner.history_.restore_cells(std::move(cells));

  const std::size_t bits_expected = static_cast<std::size_t>(n) * n;
  const std::size_t words_expected = (bits_expected + 63) / 64;
  // Per hypothesis: n^2 cells, the bitset's two u32 sizes and its words.
  const std::uint32_t nfrontier =
      r.read_count(kMaxStateFrontier, bits_expected + 8 + 8 * words_expected,
                   "learner state: frontier size out of range");
  if (nfrontier == 0) raise("learner state: frontier size out of range");
  learner.frontier_.clear();
  learner.frontier_.reserve(nfrontier);
  for (std::uint32_t i = 0; i < nfrontier; ++i) {
    DependencyMatrix d = read_matrix_cells(r, n, "learner state: ");
    const std::uint32_t bits = r.read_u32();
    const std::uint32_t nwords = r.read_u32();
    if (bits != bits_expected || nwords != words_expected) {
      raise("learner state: assumption bitset shape mismatch");
    }
    std::vector<std::uint64_t> words;
    words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) words.push_back(r.read_u64());
    learner.frontier_.emplace_back(
        std::move(d), DynamicBitset::from_words(bits, std::move(words)));
  }

  learner.stats_.periods_processed = r.read_u64();
  learner.stats_.messages_processed = r.read_u64();
  learner.stats_.peak_hypotheses = r.read_u64();
  learner.stats_.hypotheses_created = r.read_u64();
  learner.stats_.merges = r.read_u64();
  learner.stats_.unexplained_messages = r.read_u64();
  learner.stats_.quarantined_periods = r.read_u64();
  const std::uint64_t wall_bits = r.read_u64();
  std::memcpy(&learner.stats_.wall_seconds, &wall_bits,
              sizeof(learner.stats_.wall_seconds));
  const std::uint32_t nfap = r.read_count(
      kMaxPeriods, 4, "learner state: period count out of range");
  learner.stats_.frontier_after_period.clear();
  learner.stats_.frontier_after_period.reserve(nfap);
  for (std::uint32_t i = 0; i < nfap; ++i) {
    learner.stats_.frontier_after_period.push_back(r.read_u32());
  }
  return learner;
}

LearnResult OnlineLearner::snapshot(bool with_history) const {
  LearnResult result;
  if (with_history) {
    result.stats = stats_;
  } else {
    static_cast<LearnCounters&>(result.stats) = stats_;
  }
  result.hypotheses.reserve(frontier_.size());
  for (const auto& h : frontier_) result.hypotheses.push_back(h.d);
  std::sort(result.hypotheses.begin(), result.hypotheses.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() < b.weight();
            });
  return result;
}

}  // namespace bbmg
