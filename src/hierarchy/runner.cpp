#include "hierarchy/runner.h"

#include <algorithm>
#include <array>
#include <string>

#include "util/ensure.h"

namespace ulc {

namespace {

// Per-access critical-path cost derived from the counter deltas of one
// scheme.access() call: hit/miss service time plus the demote transfers it
// triggered, each with its per-unit (size-proportional) twin when the model
// has one. Matches compute_access_time term by term, so the histogram mean
// equals t_ave_ms.
//
// Everything that does not change during a run is fixed at construction:
// the stats are read through the one reference stats() returns (stable and
// live for the scheme's lifetime, see MultiLevelScheme::stats), and every
// price comes from tables built here, holding the same doubles the
// CostModel accessors compute. The terms are summed in the original order,
// so every sample is bit-identical to pricing through the model directly.
class AccessCostObserver {
 public:
  static constexpr std::size_t kMaxLevels = 16;

  AccessCostObserver(const MultiLevelScheme& scheme, const CostModel& model)
      : stats_(scheme.stats()),
        levels_(stats_.level_hits.size()),
        sized_(model.size_proportional()) {
    ULC_REQUIRE(levels_ <= kMaxLevels, "observed runs support up to 16 levels");
    ULC_REQUIRE(stats_.demotions.size() == levels_ &&
                    (!sized_ || (stats_.level_hit_bytes.size() == levels_ &&
                                 stats_.demotion_bytes.size() == levels_)),
                "observed runs need one counter slot per level in every vector");
    hit_levels_ = std::min(levels_, model.levels());
    demote_links_ = model.levels() > 0 ? std::min(levels_, model.levels() - 1) : 0;
    for (std::size_t i = 0; i < hit_levels_; ++i) {
      hit_ms_[i] = model.hit_time(i);
      hit_ms_per_unit_[i] = model.hit_time_per_unit(i);
    }
    for (std::size_t i = 0; i < demote_links_; ++i) {
      demote_ms_[i] = model.demote_cost(i);
      demote_ms_per_unit_[i] = model.demote_cost_per_unit(i);
    }
    miss_ms_ = model.miss_time();
    miss_ms_per_unit_ = model.miss_time_per_unit();
    snapshot();
  }

  // Must be called whenever scheme stats are reset mid-run (warmup end).
  void snapshot() {
    for (std::size_t i = 0; i < levels_; ++i) {
      prev_hits_[i] = stats_.level_hits[i];
      prev_demotions_[i] = stats_.demotions[i];
    }
    prev_misses_ = stats_.misses;
    if (sized_) snapshot_bytes();
  }

  // Cost in ms of the access performed since the last snapshot/observe call.
  // Each loop prices a level's delta and rolls its snapshot forward in one
  // pass: two passes over a few words would compile to memcpy for the
  // second, whose start-up cost is most of this function's.
  double observe() {
    const HierarchyStats& s = stats_;
    double cost = 0.0;
    const bool miss = s.misses != prev_misses_;
    if (miss) {
      cost += miss_ms_;
      if (sized_)
        cost += static_cast<double>(s.miss_bytes - prev_miss_bytes_) * miss_ms_per_unit_;
      prev_misses_ = s.misses;
    }
    bool priced = miss;  // only the first level whose hits moved is charged
    for (std::size_t i = 0; i < levels_; ++i) {
      const std::uint64_t hits = s.level_hits[i];
      if (!priced && i < hit_levels_ && hits != prev_hits_[i]) {
        priced = true;
        cost += hit_ms_[i];
        if (sized_)
          cost += static_cast<double>(s.level_hit_bytes[i] - prev_hit_bytes_[i]) *
                  hit_ms_per_unit_[i];
      }
      prev_hits_[i] = hits;
    }
    for (std::size_t i = 0; i < levels_; ++i) {
      const std::uint64_t demotions = s.demotions[i];
      if (i < demote_links_) {
        cost += static_cast<double>(demotions - prev_demotions_[i]) * demote_ms_[i];
        if (sized_)
          cost += static_cast<double>(s.demotion_bytes[i] - prev_demotion_bytes_[i]) *
                  demote_ms_per_unit_[i];
      }
      prev_demotions_[i] = demotions;
    }
    if (sized_) snapshot_bytes();
    return cost;
  }

 private:
  void snapshot_bytes() {
    for (std::size_t i = 0; i < levels_; ++i) {
      prev_hit_bytes_[i] = stats_.level_hit_bytes[i];
      prev_demotion_bytes_[i] = stats_.demotion_bytes[i];
    }
    prev_miss_bytes_ = stats_.miss_bytes;
  }

  using Counts = std::array<std::uint64_t, kMaxLevels>;
  using Prices = std::array<double, kMaxLevels>;

  const HierarchyStats& stats_;
  std::size_t levels_;        // counter slots per vector in stats_
  std::size_t hit_levels_;    // levels the model prices a hit at
  std::size_t demote_links_;  // links the model prices a demotion over
  bool sized_;
  Prices hit_ms_{}, hit_ms_per_unit_{};
  Prices demote_ms_{}, demote_ms_per_unit_{};
  double miss_ms_ = 0.0;
  double miss_ms_per_unit_ = 0.0;
  Counts prev_hits_{}, prev_demotions_{};
  Counts prev_hit_bytes_{}, prev_demotion_bytes_{};
  std::uint64_t prev_misses_ = 0;
  std::uint64_t prev_miss_bytes_ = 0;
};

void publish_counters(obs::MetricsRegistry& m, const HierarchyStats& s) {
  for (std::size_t i = 0; i < s.level_hits.size(); ++i)
    m.add_counter("hits.L" + std::to_string(i), s.level_hits[i]);
  m.add_counter("misses", s.misses);
  for (std::size_t i = 0; i < s.demotions.size(); ++i)
    m.add_counter("demote.L" + std::to_string(i), s.demotions[i]);
  for (std::size_t i = 0; i < s.reloads.size(); ++i)
    m.add_counter("reload.L" + std::to_string(i), s.reloads[i]);
  m.add_counter("references", s.references);
  m.add_counter("writebacks", s.writebacks);
}

}  // namespace

RunResult run_scheme(MultiLevelScheme& scheme, const Trace& trace,
                     const CostModel& model, double warmup_fraction,
                     RunObservation observe) {
  ULC_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
              "warmup fraction must be in [0, 1)");
  obs::MetricsRegistry* metrics = obs::gate(observe.metrics);
  obs::TraceRecorder* events = obs::gate(observe.events);
  RunResult result;
  result.scheme = scheme.name();
  result.trace = trace.name();
  if (trace.empty()) {
    // No references: return zeroed stats (sized to the scheme's levels)
    // instead of ratios computed from 0 references.
    scheme.reset_stats();
    result.stats = scheme.stats();
    result.time = compute_access_time(result.stats, model);
    result.t_ave_ms = result.time.total();
    if (metrics) publish_counters(*metrics, result.stats);
    return result;
  }
  // On tiny traces `warmup_fraction * size` can round to 0; the stats must
  // still be dropped exactly once, before the first measured reference.
  const std::size_t warmup =
      static_cast<std::size_t>(warmup_fraction * static_cast<double>(trace.size()));
  bool stats_reset = false;
  if (metrics || events) {
    AccessCostObserver cost(scheme, model);
    obs::LatencyHistogram* hist =
        metrics ? &metrics->histogram("response_ms") : nullptr;
    double clock_ms = 0.0;  // closed-loop simulated time
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i >= warmup && !stats_reset) {
        scheme.reset_stats();
        stats_reset = true;
        cost.snapshot();
      }
      if (i + 1 < trace.size()) scheme.prefetch(trace[i + 1]);
      scheme.access(trace[i]);
      if (stats_reset) {
        const double ms = cost.observe();
        if (hist) hist->record(ms);
        if (events) {
          events->span("access", "access", clock_ms, ms,
                       obs::TraceRecorder::kClientTrack, i,
                       static_cast<std::int64_t>(trace[i].block));
        }
        clock_ms += ms;
      }
    }
  } else {
    // Batched path: one virtual dispatch per span instead of per reference,
    // and the hot schemes' access_batch overrides run their prefetch
    // pipeline inside. Splitting at the warmup boundary reproduces the
    // per-access loop's reset point exactly (reset fires before reference
    // `warmup`, which exists since warmup_fraction < 1).
    const std::span<const Request> all(trace.requests());
    scheme.access_batch(all.first(warmup));
    scheme.reset_stats();
    stats_reset = true;
    scheme.access_batch(all.subspan(warmup));
  }
  ULC_ENSURE(stats_reset, "warmup must end before the trace does");
  result.stats = scheme.stats();
  result.time = compute_access_time(result.stats, model);
  result.t_ave_ms = result.time.total();
  if (metrics) publish_counters(*metrics, result.stats);
  return result;
}

}  // namespace ulc
