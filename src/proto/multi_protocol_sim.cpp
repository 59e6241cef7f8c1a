#include "proto/multi_protocol_sim.h"

#include <algorithm>

#include "proto/event_queue.h"
#include "util/ensure.h"
#include "util/prng.h"

namespace ulc {

namespace {

// Per-access outcome recovered by diffing the scheme's cumulative counters
// around one access() call — keeps a single implementation of each scheme's
// (subtle) decision logic.
struct AccessDelta {
  std::size_t hit_level = kLevelOutSentinel;
  std::uint64_t demotions = 0;

  static constexpr std::size_t kLevelOutSentinel = static_cast<std::size_t>(-1);
};

class DeltaTracker {
 public:
  explicit DeltaTracker(const HierarchyStats& stats) : stats_(stats) { snap(); }

  void snap() {
    hits0_ = stats_.level_hits[0];
    hits1_ = stats_.level_hits[1];
    misses_ = stats_.misses;
    demotions_ = stats_.demotions[0];
  }

  AccessDelta delta() const {
    AccessDelta d;
    if (stats_.level_hits[0] != hits0_) {
      d.hit_level = 0;
    } else if (stats_.level_hits[1] != hits1_) {
      d.hit_level = 1;
    } else {
      ULC_ENSURE(stats_.misses != misses_, "access produced no hit and no miss");
      d.hit_level = AccessDelta::kLevelOutSentinel;
    }
    d.demotions = stats_.demotions[0] - demotions_;
    return d;
  }

 private:
  const HierarchyStats& stats_;
  std::uint64_t hits0_ = 0, hits1_ = 0, misses_ = 0, demotions_ = 0;
};

}  // namespace

MultiProtocolResult run_multi_protocol_sim(MultiLevelScheme& scheme,
                                           std::vector<PatternPtr> sources,
                                           const MultiProtocolConfig& config) {
  const std::size_t n_clients = sources.size();
  ULC_REQUIRE(n_clients >= 1, "need at least one client");
  ULC_REQUIRE(scheme.stats().level_hits.size() == 2,
              "multi protocol sim expects a two-level scheme");
  ULC_REQUIRE(config.refs_per_client > 0, "need references to simulate");

  obs::TraceRecorder* events = obs::gate(config.events);
  if (events) {
    for (std::size_t c = 0; c < n_clients; ++c)
      events->name_track(static_cast<int>(c), "client " + std::to_string(c));
  }

  EventQueue q;
  // Each reference schedules a handful of events (completion + think-time
  // re-issue); anything past this bound means a feedback loop is
  // rescheduling itself and the run would spin forever.
  q.set_event_limit(config.refs_per_client * n_clients * 64 + 1024);
  SimLink lan(config.shared_lan);
  SimTime disk_busy_until = 0.0;
  SimTime disk_busy_total = 0.0;

  MultiProtocolResult result;
  result.scheme = scheme.name();
  result.stats.resize(2);

  DeltaTracker tracker(scheme.stats());
  std::vector<Rng> rngs;
  std::vector<std::uint64_t> issued(n_clients, 0);
  for (std::size_t c = 0; c < n_clients; ++c)
    rngs.emplace_back(config.seed * 1000003 + c);
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      config.warmup_fraction * static_cast<double>(config.refs_per_client));

  // Forward declaration dance: issue() schedules completion events which
  // call issue() again.
  std::function<void(ClientId)> issue = [&](ClientId c) {
    if (issued[c] >= config.refs_per_client) return;
    ++issued[c];
    const bool measured = issued[c] > warmup;
    const BlockId block = sources[c]->next(rngs[c]);

    tracker.snap();
    scheme.access(Request{block, c});
    const AccessDelta d = tracker.delta();

    const SimTime t_issue = q.now();
    if (measured) {
      ++result.stats.references;
      if (d.hit_level == 0) {
        ++result.stats.level_hits[0];
      } else if (d.hit_level == 1) {
        ++result.stats.level_hits[1];
      } else {
        ++result.stats.misses;
      }
      result.stats.demotions[0] += d.demotions;
    }

    if (d.hit_level == 0 && d.demotions == 0) {
      if (measured) {
        result.response_hist.record(0.0);
        if (events)
          events->span("hit L0", "access", t_issue, 0.0, static_cast<int>(c),
                       issued[c] - 1, static_cast<std::int64_t>(block));
      }
      q.schedule_in(config.think_time_ms, [&issue, c] { issue(c); });
      return;
    }

    // Ship demotion transfers first (they were triggered by cache state
    // changes that logically precede the fetch completing; on the wire they
    // are simply queued traffic).
    for (std::uint64_t i = 0; i < d.demotions; ++i)
      lan.deliver_at(0, kBlockBytes, t_issue);

    if (d.hit_level == 0) {
      if (measured) {
        result.response_hist.record(0.0);
        if (events)
          events->span("hit L0", "access", t_issue, 0.0, static_cast<int>(c),
                       issued[c] - 1, static_cast<std::int64_t>(block));
      }
      q.schedule_in(config.think_time_ms, [&issue, c] { issue(c); });
      return;
    }

    // Request travels the shared segment to the server.
    const SimTime t_at_server = lan.deliver_at(0, kControlBytes, t_issue);
    const bool server_hit = d.hit_level == 1;

    const std::uint64_t access_index = issued[c] - 1;
    auto finish = [&, c, t_issue, measured, server_hit, block,
                   access_index](SimTime ready) {
      // Block travels back up the shared segment; scheduled at `ready` so
      // the uplink sees sends in time order.
      q.schedule(ready, [&, c, t_issue, measured, server_hit, block,
                         access_index] {
        const SimTime done = lan.deliver_at(1, kBlockBytes, q.now());
        q.schedule(done, [&, c, t_issue, measured, server_hit, block,
                          access_index] {
          if (measured) {
            result.response_hist.record(q.now() - t_issue);
            if (events)
              events->span(server_hit ? "hit L1" : "miss", "access", t_issue,
                           q.now() - t_issue, static_cast<int>(c), access_index,
                           static_cast<std::int64_t>(block));
          }
          q.schedule_in(config.think_time_ms, [&issue, c] { issue(c); });
        });
      });
    };

    if (server_hit) {
      finish(t_at_server);
    } else {
      q.schedule(t_at_server, [&, finish] {
        const SimTime start = std::max(q.now(), disk_busy_until);
        disk_busy_until = start + config.disk_service_ms;
        disk_busy_total += config.disk_service_ms;
        finish(disk_busy_until);
      });
    }
  };

  for (std::size_t c = 0; c < n_clients; ++c)
    q.schedule(0.0, [&issue, c] { issue(static_cast<ClientId>(c)); });
  q.run();

  result.elapsed_ms = std::max(q.now(), 1e-9);
  result.lan_down_utilization = lan.busy_ms(0) / result.elapsed_ms;
  result.lan_up_utilization = lan.busy_ms(1) / result.elapsed_ms;
  result.disk_utilization = disk_busy_total / result.elapsed_ms;
  result.throughput_per_s =
      static_cast<double>(n_clients * config.refs_per_client) /
      (result.elapsed_ms / 1000.0);

  CostModel model;
  model.link_ms = {config.shared_lan.latency_ms + lan.transmission_ms(kBlockBytes),
                   config.disk_service_ms};
  result.analytic_t_ave_ms = compute_access_time(result.stats, model).total();
  result.response_ms = result.response_hist.moments();
  return result;
}

}  // namespace ulc
