// Unified LRU (Wong & Wilkes 2002) — the paper's uniLRU baseline.
//
// Single client: one LRU stack over the aggregate cache; the first |L1|
// positions are the client cache, the next |L2| the server cache, and so
// on. Every reference moves the block to the stack top, so one block slides
// down across each boundary above the hit position — each slide is a DEMOTE
// (a real block transfer). Exclusive by construction and with the hit rate
// of a single aggregate-size LRU, but demotion traffic is unbounded by
// design: that is the weakness ULC attacks.
//
// Multi client: per-client exclusive LRU caches over one shared server
// cache. A block read from the server moves to the client (exclusive); the
// client's LRU-bottom overflow is demoted to the server, entering at a
// configurable insertion point (Wong & Wilkes' adaptive-insertion variants;
// the bench reports the best variant per workload, as the paper did).
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "order/order_statistic_list.h"
#include "order/segmented_list.h"
#include "replacement/cache_policy.h"
#include "util/ensure.h"
#include "util/flat_hash.h"

namespace ulc {

const char* uni_lru_insertion_name(UniLruInsertion policy) {
  switch (policy) {
    case UniLruInsertion::kMru:
      return "mru";
    case UniLruInsertion::kMiddle:
      return "mid";
    case UniLruInsertion::kLru:
      return "lru";
  }
  return "?";
}

namespace {

class UniLruScheme final : public MultiLevelScheme {
 public:
  explicit UniLruScheme(std::vector<std::size_t> caps) : list_(caps) {
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
    // Each boundary slide is one demotion transfer; the final evictions are
    // silent drops — unless a block is dirty, in which case it must be
    // written back to disk first.
    for (const SegmentedList::Crossing& c : result_.crossed)
      stats_.count_demote(c.from, c.size);
    if (auditing()) emit_events(request);
    for (BlockId victim : result_.evicted)
      dirty_.write_back(victim, list_.segment_count() - 1);
  }

  // Pulls the block's group in the list's index and in the dirty map.
  void prefetch(const Request& request) const override {
    list_.prefetch(request.block);
    dirty_.prefetch(request.block);
  }

  void access_batch(std::span<const Request> batch) override {
    if (auditing()) {
      MultiLevelScheme::access_batch(batch);
      return;
    }
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 4 < n) prefetch(batch[i + 4]);
      access(batch[i]);
    }
  }

  const HierarchyStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.clear(); }
  const char* name() const override { return "uniLRU"; }

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

  // A sized access can slide one block across several boundaries (it keeps
  // being its new segment's LRU-most member); collapse its crossings into a
  // single multi-hop move — kDemote(b, from, to) accounts one transfer per
  // link crossed, matching the per-crossing demotion counters.
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

  // Narrates one access in physical process order: the serve, the MRU
  // placement, each boundary slide, then the bottom evictions. With sized
  // blocks the byte occupancy may transiently overshoot a budget between a
  // slide and the evictions that make room — the auditor enforces byte
  // budgets at access end.
  void emit_events(const Request& request) {
    if (result_.hit && result_.old_segment == 0) return;  // pure touch
    const BlockId block = request.block;
    if (result_.hit) {
      audit_emit(AuditEvent::Kind::kServe, block, result_.old_segment);
    }
    audit_emit(AuditEvent::Kind::kPlace, block, kAuditNoLevel, 0, 0, false,
               request.size);
    collect_slides();
    for (const Slide& s : slides_)
      audit_emit(AuditEvent::Kind::kDemote, s.key, s.from, s.to);
    for (BlockId victim : result_.evicted)
      audit_emit(AuditEvent::Kind::kEvict, victim, list_.segment_count() - 1);
  }

  SegmentedList list_;
  SegmentedList::AccessResult result_;
  std::vector<Slide> slides_;
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
};

// Shared server cache with positional insertion, built on the
// order-statistic list (O(log n) insert-at-position for the kMiddle
// variant). Capacity is a byte budget in SizeUnits; the insertion position
// stays a *count* notion (half the resident blocks), as in Wong & Wilkes.
class ServerLru {
 public:
  explicit ServerLru(std::size_t capacity) : capacity_(capacity) {
    ULC_REQUIRE(capacity >= 1, "server capacity must be >= 1");
    index_.reserve(capacity_ + 1);
  }

  bool contains(BlockId b) const { return index_.contains(b); }

  // Exclusive read: remove and return presence.
  bool take(BlockId b) {
    const Entry* e = index_.find(b);
    if (e == nullptr) return false;
    used_ -= e->size;
    list_.erase(e->handle);
    index_.erase(b);
    return true;
  }

  // Insert a demoted block at the given policy's position, then evict from
  // the LRU end until the byte budget holds again. A block larger than the
  // whole budget is not admitted; with LRU-point insertion the entering
  // block itself can be the first overflow victim (the passthrough corner).
  EvictResult insert(BlockId b, UniLruInsertion policy, SizeUnits size) {
    ULC_REQUIRE(!index_.contains(b), "server insert of present block");
    EvictResult ev;
    if (size > capacity_) {
      ev.admitted = false;
      return ev;
    }
    std::size_t pos = 0;
    switch (policy) {
      case UniLruInsertion::kMru:
        pos = 0;
        break;
      case UniLruInsertion::kMiddle:
        pos = list_.size() / 2;
        break;
      case UniLruInsertion::kLru:
        pos = list_.size();
        break;
    }
    index_.insert_new(b, Entry{list_.insert_at(pos, b), size});
    used_ += size;
    while (used_ > capacity_) {
      auto victim = list_.at(list_.size() - 1);
      const BlockId v = list_.value(victim);
      used_ -= index_.find(v)->size;
      ev.add(v);
      index_.erase(v);
      list_.erase(victim);
    }
    return ev;
  }

  // A server hit for a block that stays (not used by exclusive uniLRU, but
  // by tests): refresh to MRU.
  void refresh(BlockId b) {
    const Entry* e = index_.find(b);
    ULC_REQUIRE(e != nullptr, "refresh of absent block");
    list_.move_to_front(e->handle);
  }

  std::size_t size() const { return list_.size(); }
  std::uint64_t used_bytes() const { return used_; }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    OrderStatisticList::Handle handle;
    SizeUnits size = 1;
  };

  std::size_t capacity_;
  std::uint64_t used_ = 0;
  OrderStatisticList list_;
  FlatMap<BlockId, Entry> index_;
};

class UniLruMultiScheme final : public MultiLevelScheme {
 public:
  UniLruMultiScheme(std::size_t client_cap, std::size_t server_cap,
                    std::size_t n_clients, UniLruInsertion insertion)
      : server_(server_cap), insertion_(insertion) {
    ULC_REQUIRE(n_clients >= 1, "uniLRU-multi needs at least one client");
    for (std::size_t c = 0; c < n_clients; ++c)
      clients_.push_back(make_lru(client_cap));
    stats_.resize(2);
    name_ = std::string("uniLRU-") + uni_lru_insertion_name(insertion);
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < clients_.size(), "client id out of range");
    ++stats_.references;
    CachePolicy& client = *clients_[request.client];
    const BlockId b = request.block;
    AccessContext ctx;
    ctx.size = request.size;
    size_of_.put(b, request.size);  // id-stable; needed when b is demoted

    if (request.op == Op::kWrite) dirty_.mark(b, request.size);
    if (client.touch(b, ctx)) {
      stats_.count_hit(0, request.size);
      return;
    }
    if (server_.take(b)) {
      stats_.count_hit(1, request.size);  // served from server; exclusive move up
      audit_emit(AuditEvent::Kind::kServe, b, 1);
    } else {
      stats_.count_miss(request.size);  // disk read straight to the client (exclusive)
    }
    const EvictResult ev = client.insert(b, ctx);
    if (ev.admitted) {
      audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 0, request.client,
                 /*through_bottom=*/false, request.size);
    } else {
      // Uncacheable write: larger than the whole client budget, so the dirty
      // data goes straight to disk.
      dirty_.write_back(b, 0);
    }
    // DEMOTE each client victim into the shared server cache, in eviction
    // order. With sized blocks one admission can push several victims out.
    ev.for_each([&](BlockId victim) { demote_to_server(victim, request.client); });
  }

  const HierarchyStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.clear(); }
  const char* name() const override { return name_.c_str(); }

  AuditTraits audit_traits() const override {
    AuditTraits t;
    t.supported = true;
    t.bottom_evict_only = true;
    t.clients = clients_.size();
    t.capacities = {clients_[0]->capacity(), server_.capacity()};
    return t;
  }

  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    if (clients_[client]->contains(block)) out.push_back(0);
    if (server_.contains(block)) out.push_back(1);
  }

  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->size() : server_.size();
  }

  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->used_bytes() : server_.used_bytes();
  }

 private:
  // One client-victim demotion. Another client may have demoted its own copy
  // of a shared block already; the transfer still happens (the client has no
  // server directory), but the server keeps a single copy. A victim the
  // server cannot or will not hold (passthrough corner, or larger than the
  // whole server budget) still costs the transfer — kCharge — and then
  // leaves through the bottom.
  void demote_to_server(BlockId victim, ClientId owner) {
    const SizeUnits* sz = size_of_.find(victim);
    const SizeUnits victim_size = sz != nullptr ? *sz : 1;
    stats_.count_demote(0, victim_size);
    if (server_.contains(victim)) {
      server_.refresh(victim);
      audit_emit(AuditEvent::Kind::kDemoteMerge, victim, 0, 1, owner);
      return;
    }
    const EvictResult sev = server_.insert(victim, insertion_, victim_size);
    server_victims_.clear();
    sev.for_each([&](BlockId v) { server_victims_.push_back(v); });
    bool survived = sev.admitted;
    for (BlockId v : server_victims_)
      if (v == victim) survived = false;
    if (survived)
      audit_emit(AuditEvent::Kind::kDemote, victim, 0, 1, owner);
    for (BlockId v : server_victims_) {
      if (v == victim) {
        audit_emit(AuditEvent::Kind::kCharge, victim, 0, 1, owner,
                   /*through_bottom=*/false, victim_size);
        audit_emit(AuditEvent::Kind::kEvict, victim, 0, kAuditNoLevel, owner,
                   /*through_bottom=*/true);
      } else {
        audit_emit(AuditEvent::Kind::kEvict, v, 1);
      }
      dirty_.write_back(v, v == victim ? 0 : 1);
    }
    if (!sev.admitted) {
      audit_emit(AuditEvent::Kind::kCharge, victim, 0, 1, owner,
                 /*through_bottom=*/false, victim_size);
      audit_emit(AuditEvent::Kind::kEvict, victim, 0, kAuditNoLevel, owner,
                 /*through_bottom=*/true);
      dirty_.write_back(victim, 0);
    }
  }

  std::vector<PolicyPtr> clients_;
  ServerLru server_;
  UniLruInsertion insertion_;
  DirtyLedger dirty_{*this, stats_};
  FlatMap<BlockId, SizeUnits> size_of_;  // id-stable block footprints
  std::vector<BlockId> server_victims_;
  HierarchyStats stats_;
  std::string name_;
};

}  // namespace

SchemePtr make_uni_lru(std::vector<std::size_t> caps) {
  return std::make_unique<UniLruScheme>(std::move(caps));
}

SchemePtr make_uni_lru_multi(std::size_t client_cap, std::size_t server_cap,
                             std::size_t n_clients, UniLruInsertion insertion) {
  return std::make_unique<UniLruMultiScheme>(client_cap, server_cap, n_clients,
                                             insertion);
}

}  // namespace ulc
