// The paper's analytical access-time model (§4.1):
//
//   T_ave = sum_i h_i * T_i  +  h_miss * T_m  +  sum_i h_di * T_di
//
// Levels are numbered from the client (level 0). link_ms[i] is the cost of
// moving one block across the link below level i (level i <-> level i+1;
// the last link is level n-1 <-> disk). Then a hit at level i costs the
// links above it, a miss costs every link, and a demotion from level i to
// i+1 costs link_ms[i]. Demotions are charged on the critical path, as the
// paper argues they must be (§4.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace ulc {

struct CostModel {
  CostModel() = default;
  explicit CostModel(std::vector<double> link) : link_ms(std::move(link)) {}

  std::vector<double> link_ms;
  // Size-proportional mode: moving a block of s SizeUnits across link i
  // costs link_ms[i] + s * link_ms_per_unit[i] (a per-message latency floor
  // plus a bandwidth term). Empty — the default — is the paper's per-block
  // mode, where every block costs link_ms[i] regardless of size; when set it
  // must have one entry per link.
  std::vector<double> link_ms_per_unit;

  // The paper's three-level setting: client --1ms LAN-- server --0.2ms SAN--
  // disk-array cache --10ms-- disk (8KB blocks).
  static CostModel paper_three_level();
  // Two-level client/server setting used for Figure 7.
  static CostModel paper_two_level();
  // `base` with a per-unit bandwidth term added to every link: link i costs
  // link_ms[i] + s * ms_per_unit_scale * link_ms[i] for an s-unit block
  // (each link's bandwidth term proportional to its latency).
  static CostModel sized(const CostModel& base, double ms_per_unit_scale);

  std::size_t levels() const { return link_ms.size(); }
  bool size_proportional() const { return !link_ms_per_unit.empty(); }
  double hit_time(std::size_t level) const;
  double miss_time() const;
  double demote_cost(std::size_t boundary) const { return link_ms[boundary]; }
  // Per-unit twins of the three accessors above (0 in per-block mode).
  double hit_time_per_unit(std::size_t level) const;
  double miss_time_per_unit() const;
  double demote_cost_per_unit(std::size_t boundary) const {
    return size_proportional() ? link_ms_per_unit[boundary] : 0.0;
  }
};

// Raw event counts accumulated by a hierarchy scheme.
struct HierarchyStats {
  std::vector<std::uint64_t> level_hits;
  std::uint64_t misses = 0;
  // demotions[i]: block transfers from level i down to level i+1 (uniLRU
  // demotes, ULC Demote commands). The last entry counts demotes out of the
  // bottom level only for schemes that model them as transfers; plain
  // evictions (drops) are not demotions.
  std::vector<std::uint64_t> demotions;
  // reloads[i]: blocks re-read from disk into level i+1 instead of being
  // demoted (eviction-based placement, Chen et al. 2003). Off the critical
  // path but disk work nonetheless.
  std::vector<std::uint64_t> reloads;
  std::uint64_t references = 0;
  // Dirty blocks written back to disk when they left the hierarchy.
  std::uint64_t writebacks = 0;
  // Multi-client protocol accounting.
  std::uint64_t eviction_notices = 0;  // server -> owner piggybacked notices
  std::uint64_t stale_syncs = 0;       // shared-block metadata repairs

  // Byte-weighted twins of the transfer counters above, in SizeUnits: a hit
  // moves the served block's bytes up the links, a demotion moves the
  // victim's bytes down one link. At unit size each twin mirrors its count
  // exactly. `sized` flips the first time any counter is fed a size != 1 and
  // gates the byte fields out of the JSON schema, so unit-size runs keep the
  // pre-refactor reports byte-for-byte.
  std::vector<std::uint64_t> level_hit_bytes;
  std::uint64_t miss_bytes = 0;
  std::vector<std::uint64_t> demotion_bytes;
  std::vector<std::uint64_t> reload_bytes;
  bool sized = false;

  // Counter helpers: every scheme accounts hits/misses/transfers through
  // these so the count and its byte twin can never drift apart (the
  // auditor's conservation check verifies both against the narration).
  void count_hit(std::size_t level, std::uint64_t size) {
    ++level_hits[level];
    level_hit_bytes[level] += size;
    if (size != 1) sized = true;
  }
  void count_miss(std::uint64_t size) {
    ++misses;
    miss_bytes += size;
    if (size != 1) sized = true;
  }
  void count_demote(std::size_t link, std::uint64_t size) {
    ++demotions[link];
    demotion_bytes[link] += size;
    if (size != 1) sized = true;
  }
  void count_reload(std::size_t link, std::uint64_t size) {
    ++reloads[link];
    reload_bytes[link] += size;
    if (size != 1) sized = true;
  }

  void resize(std::size_t levels);
  void clear();

  double hit_ratio(std::size_t level) const;
  double total_hit_ratio() const;
  double miss_ratio() const;
  double demotion_ratio(std::size_t boundary) const;
};

// T_ave decomposition for reporting (all in ms per reference).
struct AccessTimeBreakdown {
  double hit_component = 0.0;
  double miss_component = 0.0;
  double demotion_component = 0.0;
  // Disk time spent on reloads, reported separately (not in total()).
  double reload_disk_ms = 0.0;
  // Disk time spent writing back dirty blocks (off-path, not in total()).
  double writeback_disk_ms = 0.0;
  double total() const { return hit_component + miss_component + demotion_component; }
};

AccessTimeBreakdown compute_access_time(const HierarchyStats& stats,
                                        const CostModel& model);

// Raw per-level counters as JSON ({"level_hits": [...], "misses": N,
// "demotions": [...], "reloads": [...], "references": N, "writebacks": N});
// the protocol-only counters (eviction_notices, stale_syncs) are included
// only when non-zero, and the byte twins (level_hit_bytes, miss_bytes,
// demotion_bytes, reload_bytes) only when the run saw a non-unit size.
// Shared by the experiment engine cells and the fault sweep rows so every
// bench JSON reports the same counter schema.
Json counters_to_json(const HierarchyStats& stats);

}  // namespace ulc
