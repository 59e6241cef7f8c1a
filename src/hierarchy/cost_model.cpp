#include "hierarchy/cost_model.h"

#include "util/ensure.h"

namespace ulc {

CostModel CostModel::paper_three_level() { return CostModel{{1.0, 0.2, 10.0}}; }

CostModel CostModel::paper_two_level() { return CostModel{{1.0, 10.0}}; }

CostModel CostModel::sized(const CostModel& base, double ms_per_unit_scale) {
  ULC_REQUIRE(ms_per_unit_scale >= 0.0, "per-unit scale must be >= 0");
  CostModel m;
  m.link_ms = base.link_ms;
  m.link_ms_per_unit.reserve(base.link_ms.size());
  for (double l : base.link_ms) m.link_ms_per_unit.push_back(l * ms_per_unit_scale);
  return m;
}

double CostModel::hit_time(std::size_t level) const {
  ULC_REQUIRE(level < link_ms.size(), "hit_time level out of range");
  double t = 0.0;
  for (std::size_t i = 0; i < level; ++i) t += link_ms[i];
  return t;
}

double CostModel::miss_time() const {
  double t = 0.0;
  for (double l : link_ms) t += l;
  return t;
}

double CostModel::hit_time_per_unit(std::size_t level) const {
  if (!size_proportional()) return 0.0;
  ULC_REQUIRE(level < link_ms_per_unit.size(), "hit_time level out of range");
  double t = 0.0;
  for (std::size_t i = 0; i < level; ++i) t += link_ms_per_unit[i];
  return t;
}

double CostModel::miss_time_per_unit() const {
  double t = 0.0;
  for (double l : link_ms_per_unit) t += l;
  return t;
}

void HierarchyStats::resize(std::size_t levels) {
  level_hits.assign(levels, 0);
  demotions.assign(levels, 0);
  reloads.assign(levels, 0);
  level_hit_bytes.assign(levels, 0);
  demotion_bytes.assign(levels, 0);
  reload_bytes.assign(levels, 0);
}

void HierarchyStats::clear() {
  for (auto& v : level_hits) v = 0;
  for (auto& v : demotions) v = 0;
  for (auto& v : reloads) v = 0;
  for (auto& v : level_hit_bytes) v = 0;
  for (auto& v : demotion_bytes) v = 0;
  for (auto& v : reload_bytes) v = 0;
  misses = 0;
  miss_bytes = 0;
  references = 0;
  writebacks = 0;
  eviction_notices = 0;
  stale_syncs = 0;
  sized = false;
}

double HierarchyStats::hit_ratio(std::size_t level) const {
  if (references == 0) return 0.0;
  return static_cast<double>(level_hits[level]) / static_cast<double>(references);
}

double HierarchyStats::total_hit_ratio() const {
  if (references == 0) return 0.0;
  std::uint64_t h = 0;
  for (auto v : level_hits) h += v;
  return static_cast<double>(h) / static_cast<double>(references);
}

double HierarchyStats::miss_ratio() const {
  if (references == 0) return 0.0;
  return static_cast<double>(misses) / static_cast<double>(references);
}

double HierarchyStats::demotion_ratio(std::size_t boundary) const {
  if (references == 0) return 0.0;
  return static_cast<double>(demotions[boundary]) / static_cast<double>(references);
}

Json counters_to_json(const HierarchyStats& stats) {
  Json j = Json::object();
  Json hits = Json::array();
  for (auto v : stats.level_hits) hits.push(v);
  j.set("level_hits", std::move(hits));
  j.set("misses", stats.misses);
  Json dem = Json::array();
  for (auto v : stats.demotions) dem.push(v);
  j.set("demotions", std::move(dem));
  Json rel = Json::array();
  for (auto v : stats.reloads) rel.push(v);
  j.set("reloads", std::move(rel));
  j.set("references", stats.references);
  j.set("writebacks", stats.writebacks);
  if (stats.eviction_notices != 0) j.set("eviction_notices", stats.eviction_notices);
  if (stats.stale_syncs != 0) j.set("stale_syncs", stats.stale_syncs);
  if (stats.sized) {
    Json hb = Json::array();
    for (auto v : stats.level_hit_bytes) hb.push(v);
    j.set("level_hit_bytes", std::move(hb));
    j.set("miss_bytes", stats.miss_bytes);
    Json db = Json::array();
    for (auto v : stats.demotion_bytes) db.push(v);
    j.set("demotion_bytes", std::move(db));
    Json rb = Json::array();
    for (auto v : stats.reload_bytes) rb.push(v);
    j.set("reload_bytes", std::move(rb));
  }
  return j;
}

AccessTimeBreakdown compute_access_time(const HierarchyStats& stats,
                                        const CostModel& model) {
  ULC_REQUIRE(stats.level_hits.size() >= model.levels(),
              "stats/model level mismatch");
  AccessTimeBreakdown out;
  if (stats.references == 0) return out;
  const double n = static_cast<double>(stats.references);
  // Each component is its per-block term plus, in size-proportional mode,
  // the same sum weighted by the byte twins: N blocks of B total units over
  // link i cost N*link_ms[i] + B*link_ms_per_unit[i].
  for (std::size_t i = 0; i < model.levels(); ++i) {
    out.hit_component +=
        static_cast<double>(stats.level_hits[i]) / n * model.hit_time(i);
  }
  out.miss_component = static_cast<double>(stats.misses) / n * model.miss_time();
  for (std::size_t i = 0; i + 1 < model.levels(); ++i) {
    out.demotion_component +=
        static_cast<double>(stats.demotions[i]) / n * model.demote_cost(i);
  }
  if (model.size_proportional()) {
    ULC_REQUIRE(model.link_ms_per_unit.size() == model.link_ms.size(),
                "size-proportional mode needs one per-unit cost per link");
    ULC_REQUIRE(stats.level_hit_bytes.size() >= model.levels(),
                "stats/model level mismatch");
    for (std::size_t i = 0; i < model.levels(); ++i) {
      out.hit_component += static_cast<double>(stats.level_hit_bytes[i]) / n *
                           model.hit_time_per_unit(i);
    }
    out.miss_component +=
        static_cast<double>(stats.miss_bytes) / n * model.miss_time_per_unit();
    for (std::size_t i = 0; i + 1 < model.levels(); ++i) {
      out.demotion_component += static_cast<double>(stats.demotion_bytes[i]) /
                                n * model.demote_cost_per_unit(i);
    }
  }
  const double disk_link = model.link_ms.back();
  const double disk_per_unit =
      model.size_proportional() ? model.link_ms_per_unit.back() : 0.0;
  for (std::size_t i = 0; i < stats.reloads.size(); ++i) {
    out.reload_disk_ms += static_cast<double>(stats.reloads[i]) / n * disk_link;
    if (i < stats.reload_bytes.size()) {
      out.reload_disk_ms +=
          static_cast<double>(stats.reload_bytes[i]) / n * disk_per_unit;
    }
  }
  // Write-backs stay per-block: their byte twin is not tracked (the ISSUE's
  // conservation law covers hits/demotions/reloads).
  out.writeback_disk_ms = static_cast<double>(stats.writebacks) / n * disk_link;
  return out;
}

}  // namespace ulc
