// Eviction-based placement (Chen, Zhou & Li, USENIX 2003), discussed in the
// paper's Related Work: keep unified-LRU's exclusive layout, but instead of
// demoting a block over the network, drop it and have the lower level
// re-read it from disk. Cache contents — and therefore hit rates — are
// identical to uniLRU (tests assert this); the cost moves from the
// client/server links to the disk, off the critical path. The ablation
// bench uses this to probe when uniLRU's demotion traffic, not its layout,
// is the problem.
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "order/segmented_list.h"

namespace ulc {

namespace {

class ReloadUniLruScheme final : public MultiLevelScheme {
 public:
  explicit ReloadUniLruScheme(std::vector<std::size_t> caps) : list_(caps) {
    stats_.resize(caps.size());
  }

  void access(const Request& request) override {
    ++stats_.references;
    list_.access(request.block, result_, request.size);
    if (result_.hit) {
      stats_.count_hit(result_.old_segment, request.size);
    } else {
      stats_.count_miss(request.size);
    }
    if (request.op == Op::kWrite) dirty_.mark(request.block, request.size);
    // Boundary slides become disk reloads into the lower level rather than
    // network demotions. Note the catch for dirty blocks: a reload fetches
    // the *stale* on-disk copy, so dirty blocks must be written back before
    // their cached copy may be dropped.
    for (const SegmentedList::Crossing& c : result_.crossed)
      stats_.count_reload(c.from, c.size);
    if (auditing()) {
      emit_events(request);
    } else {
      collect_slides();
      for (const Slide& s : slides_) dirty_.write_back(s.key, s.from);
    }
    for (BlockId victim : result_.evicted)
      dirty_.write_back(victim, list_.segment_count() - 1);
  }

  const HierarchyStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.clear(); }
  const char* name() const override { return "reloadLRU"; }

  AuditTraits audit_traits() const override {
    AuditTraits t;
    t.supported = true;
    t.exclusive = true;
    t.bottom_evict_only = true;
    for (std::size_t s = 0; s < list_.segment_count(); ++s)
      t.capacities.push_back(list_.segment_capacity(s));
    return t;
  }

  void audit_resident_levels(ClientId, BlockId block,
                             std::vector<std::size_t>& out) const override {
    const std::size_t s = list_.segment_of(block);
    if (s != SegmentedList::kNoSegment) out.push_back(s);
  }

  std::size_t audit_level_size(ClientId, std::size_t level) const override {
    return list_.segment_size(level);
  }

  std::uint64_t audit_level_bytes(ClientId, std::size_t level) const override {
    return list_.segment_bytes(level);
  }

 private:
  struct Slide {
    BlockId key = 0;
    std::size_t from = 0;
    std::size_t to = 0;
  };

  // Collapse a block's crossings into one multi-hop move (see uniLRU); the
  // write-back the stale-copy rule forces happens at most once per block.
  void collect_slides() {
    slides_.clear();
    for (const SegmentedList::Crossing& c : result_.crossed) {
      bool merged = false;
      for (Slide& s : slides_) {
        if (s.key == c.key) {
          s.to = c.from + 1;
          merged = true;
          break;
        }
      }
      if (!merged) slides_.push_back(Slide{c.key, c.from, c.from + 1});
    }
  }

  // Same physical-order narration as uniLRU, except boundary slides are
  // kReload (disk re-read) rather than kDemote, each preceded by the
  // write-back the stale-copy rule forces for dirty blocks (emitted from
  // the DirtyLedger).
  void emit_events(const Request& request) {
    if (result_.hit && result_.old_segment == 0) return;  // pure touch
    const BlockId block = request.block;
    if (result_.hit) {
      audit_emit(AuditEvent::Kind::kServe, block, result_.old_segment);
    }
    audit_emit(AuditEvent::Kind::kPlace, block, kAuditNoLevel, 0, 0, false,
               request.size);
    collect_slides();
    for (const Slide& s : slides_) {
      dirty_.write_back(s.key, s.from);
      audit_emit(AuditEvent::Kind::kReload, s.key, s.from, s.to);
    }
    for (BlockId victim : result_.evicted)
      audit_emit(AuditEvent::Kind::kEvict, victim, list_.segment_count() - 1);
  }

  SegmentedList list_;
  SegmentedList::AccessResult result_;
  std::vector<Slide> slides_;
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
};

}  // namespace

SchemePtr make_reload_uni_lru(std::vector<std::size_t> caps) {
  return std::make_unique<ReloadUniLruScheme>(std::move(caps));
}

}  // namespace ulc
