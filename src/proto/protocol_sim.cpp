#include "proto/protocol_sim.h"

#include <algorithm>
#include <memory>

#include "order/segmented_list.h"
#include "replacement/cache_policy.h"
#include "ulc/ulc_client.h"
#include "util/ensure.h"

namespace ulc {

const char* protocol_scheme_name(ProtocolScheme scheme) {
  switch (scheme) {
    case ProtocolScheme::kUlc:
      return "ULC";
    case ProtocolScheme::kUniLru:
      return "uniLRU";
    case ProtocolScheme::kIndLru:
      return "indLRU";
  }
  return "?";
}

ProtocolConfig ProtocolConfig::paper_three_level(std::vector<std::size_t> caps) {
  ProtocolConfig cfg;
  cfg.caps = std::move(caps);
  ULC_REQUIRE(cfg.caps.size() == 3, "paper_three_level needs three levels");
  // latency + one 8KB transmission == the paper's per-hop cost:
  //   LAN: 0.5ms + 8KB @ 16MB/s (~0.49ms) ~= 1.0ms
  //   SAN: 0.1ms + 8KB @ 80MB/s (~0.10ms) ~= 0.2ms
  cfg.links = {LinkConfig{0.5, 16.0}, LinkConfig{0.1, 80.0}};
  cfg.disk_service_ms = 10.0;
  return cfg;
}

namespace {

struct Transfer {
  std::size_t from;
  std::size_t to;
};

struct Decision {
  std::size_t hit_level = kLevelOut;  // kLevelOut = disk
  std::vector<Transfer> demotions;    // data transfers from -> to (real levels)
  bool client_directed = false;       // demote commands originate at the client
};

// Adapters present every scheme as "where was it served + which block
// transfers go down afterwards".
class SchemeAdapter {
 public:
  virtual ~SchemeAdapter() = default;
  virtual void access(BlockId block, Decision& out) = 0;
};

namespace {
UlcConfig plain_config(const std::vector<std::size_t>& caps) {
  UlcConfig cfg;
  cfg.capacities = caps;
  return cfg;
}
}  // namespace

class UlcAdapter final : public SchemeAdapter {
 public:
  explicit UlcAdapter(const std::vector<std::size_t>& caps)
      : client_(plain_config(caps)) {}

  void access(BlockId block, Decision& out) override {
    const UlcAccess& a = client_.access(block);
    out.hit_level = a.hit_level;
    out.demotions.clear();
    out.client_directed = true;
    for (const DemoteCmd& d : a.demotions) {
      if (d.to == kLevelOut) continue;  // discard: no transfer
      out.demotions.push_back(Transfer{d.from, d.to});
    }
  }

 private:
  UlcClient client_;
};

class UniLruAdapter final : public SchemeAdapter {
 public:
  explicit UniLruAdapter(const std::vector<std::size_t>& caps) : list_(caps) {}

  void access(BlockId block, Decision& out) override {
    list_.access(block, result_);
    out.hit_level = result_.hit ? result_.old_segment : kLevelOut;
    out.demotions.clear();
    out.client_directed = false;  // each level demotes its own overflow
    for (const SegmentedList::Crossing& c : result_.crossed)
      out.demotions.push_back(Transfer{c.from, c.from + 1});
  }

 private:
  SegmentedList list_;
  SegmentedList::AccessResult result_;
};

class IndLruAdapter final : public SchemeAdapter {
 public:
  explicit IndLruAdapter(const std::vector<std::size_t>& caps) {
    for (std::size_t c : caps) levels_.push_back(make_lru(c));
  }

  void access(BlockId block, Decision& out) override {
    out.demotions.clear();
    out.client_directed = false;
    out.hit_level = kLevelOut;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if (levels_[l]->touch(block, {})) {
        out.hit_level = l;
        break;
      }
    }
    const std::size_t upper =
        out.hit_level == kLevelOut ? levels_.size() : out.hit_level;
    for (std::size_t l = 0; l < upper; ++l) levels_[l]->insert(block, {});
  }

 private:
  std::vector<PolicyPtr> levels_;
};

std::unique_ptr<SchemeAdapter> make_adapter(ProtocolScheme scheme,
                                            const std::vector<std::size_t>& caps) {
  switch (scheme) {
    case ProtocolScheme::kUlc:
      return std::make_unique<UlcAdapter>(caps);
    case ProtocolScheme::kUniLru:
      return std::make_unique<UniLruAdapter>(caps);
    case ProtocolScheme::kIndLru:
      return std::make_unique<IndLruAdapter>(caps);
  }
  return nullptr;
}

}  // namespace

ProtocolResult run_protocol_sim(ProtocolScheme scheme, const ProtocolConfig& config,
                                const Trace& trace, obs::TraceRecorder* events) {
  events = obs::gate(events);
  ULC_REQUIRE(!config.caps.empty(), "protocol sim needs at least one level");
  ULC_REQUIRE(config.links.size() + 1 == config.caps.size(),
              "need one link per adjacent level pair");
  ULC_REQUIRE(config.warmup_fraction >= 0.0 && config.warmup_fraction < 1.0,
              "warmup fraction must be in [0, 1)");

  auto adapter = make_adapter(scheme, config.caps);
  std::vector<SimLink> links;
  links.reserve(config.links.size());
  for (const LinkConfig& lc : config.links) links.emplace_back(lc);

  ProtocolResult result;
  result.scheme = scheme;
  result.stats.resize(config.caps.size());

  SimTime now = 0.0;
  SimTime disk_busy_until = 0.0;
  SimTime disk_busy_total = 0.0;

  const std::size_t warmup = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(trace.size()));
  SimTime measure_start = 0.0;
  std::vector<SimTime> busy_down_at_start(links.size(), 0.0);
  std::vector<SimTime> busy_up_at_start(links.size(), 0.0);
  SimTime disk_busy_at_start = 0.0;

  Decision d;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i == warmup) {
      result.stats.clear();
      result.response_hist.clear();
      measure_start = now;
      for (std::size_t l = 0; l < links.size(); ++l) {
        busy_down_at_start[l] = links[l].busy_ms(0);
        busy_up_at_start[l] = links[l].busy_ms(1);
      }
      disk_busy_at_start = disk_busy_total;
    }
    ++result.stats.references;
    adapter->access(trace[i].block, d);

    // --- the read path ---
    SimTime completion = now;
    if (d.hit_level != 0) {
      const std::size_t served_from =
          d.hit_level == kLevelOut ? config.caps.size() : d.hit_level;
      SimTime at = now;
      // Request hops down to the serving level (or to the bottom, for disk).
      for (std::size_t l = 0; l < served_from && l < links.size(); ++l)
        at = links[l].deliver_at(0, kControlBytes, at);
      if (d.hit_level == kLevelOut) {
        const SimTime start = std::max(at, disk_busy_until);
        disk_busy_until = start + config.disk_service_ms;
        disk_busy_total += config.disk_service_ms;
        at = disk_busy_until;
      }
      // The block travels up, store-and-forward across every link.
      const std::size_t top_link = std::min(served_from, links.size());
      for (std::size_t l = top_link; l-- > 0;)
        at = links[l].deliver_at(1, kBlockBytes, at);
      completion = at;
    }
    if (d.hit_level == kLevelOut) {
      ++result.stats.misses;
    } else {
      ++result.stats.level_hits[d.hit_level];
    }
    result.response_hist.record(completion - now);
    if (events) {
      const std::string name =
          d.hit_level == kLevelOut ? "miss"
                                   : "hit L" + std::to_string(d.hit_level);
      events->span(name, "access", now, completion - now,
                   obs::TraceRecorder::kClientTrack, i,
                   static_cast<std::int64_t>(trace[i].block));
    }

    // --- demotion transfers, issued after the reference completes ---
    for (const Transfer& tr : d.demotions) {
      SimTime at = completion;
      if (d.client_directed && tr.from > 0) {
        // ULC: the Demote command itself travels from the client down to the
        // level holding the block.
        for (std::size_t l = 0; l < tr.from; ++l)
          at = links[l].deliver_at(0, kControlBytes, at);
      }
      const SimTime demote_start = at;
      for (std::size_t l = tr.from; l < tr.to && l < links.size(); ++l) {
        at = links[l].deliver_at(0, kBlockBytes, at);
        ++result.stats.demotions[l];
      }
      if (events) {
        events->span("demote L" + std::to_string(tr.from) + "->L" +
                         std::to_string(tr.to),
                     "demote", demote_start, at - demote_start,
                     obs::TraceRecorder::level_track(tr.from), i);
      }
    }
    now = completion;
  }

  const SimTime elapsed = std::max(now - measure_start, 1e-9);
  result.elapsed_ms = elapsed;
  result.link_down_utilization.resize(links.size());
  result.link_up_utilization.resize(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    result.link_down_utilization[l] =
        (links[l].busy_ms(0) - busy_down_at_start[l]) / elapsed;
    result.link_up_utilization[l] =
        (links[l].busy_ms(1) - busy_up_at_start[l]) / elapsed;
  }
  result.disk_utilization = (disk_busy_total - disk_busy_at_start) / elapsed;

  result.analytic_t_ave_ms = protocol_analytic_t_ave(config, result.stats);
  result.response_ms = result.response_hist.moments();
  return result;
}

double protocol_analytic_t_ave(const ProtocolConfig& config,
                               const HierarchyStats& stats) {
  // Per-hop cost = latency + one block transmission, for the given counts.
  CostModel model;
  for (const LinkConfig& lc : config.links) {
    // Reconstruct the per-hop block cost from the link itself.
    model.link_ms.push_back(SimLink(lc).transmission_ms(kBlockBytes) + 0.0);
  }
  for (std::size_t l = 0; l < config.links.size(); ++l)
    model.link_ms[l] += config.links[l].latency_ms;
  model.link_ms.push_back(config.disk_service_ms);
  return compute_access_time(stats, model).total();
}

}  // namespace ulc
