// Independent LRU — the commonly deployed baseline (paper's indLRU).
//
// Every level runs its own LRU with no coordination. Caching is inclusive:
// a block served from level k (or disk) is inserted at every level above k
// on its way to the client, so the same block commonly occupies buffers on
// several levels at once — the undiscerning redundancy the paper's
// introduction criticizes. Evictions are silent drops (no transfers), hence
// no demotion cost; its weakness is the hit rate.
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "replacement/cache_policy.h"
#include "util/ensure.h"

namespace ulc {

namespace {

class IndLruScheme final : public MultiLevelScheme {
 public:
  IndLruScheme(std::vector<std::size_t> caps, std::size_t n_clients)
      : levels_(caps.size()) {
    ULC_REQUIRE(!caps.empty(), "indLRU needs at least one level");
    ULC_REQUIRE(n_clients >= 1, "indLRU needs at least one client");
    for (std::size_t c = 0; c < n_clients; ++c)
      client_caches_.push_back(make_lru(caps[0]));
    for (std::size_t l = 1; l < caps.size(); ++l)
      shared_caches_.push_back(make_lru(caps[l]));
    stats_.resize(levels_);
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < client_caches_.size(), "client id out of range");
    ++stats_.references;
    CachePolicy& client = *client_caches_[request.client];
    const BlockId b = request.block;
    AccessContext ctx;
    ctx.size = request.size;

    if (request.op == Op::kWrite) dirty_.mark(b, request.size);
    if (client.touch(b, ctx)) {
      stats_.count_hit(0, request.size);
      return;
    }
    // Walk down the hierarchy; cache the block at every level it passes.
    std::size_t hit_level = kNoHit;
    for (std::size_t l = 1; l < levels_; ++l) {
      if (shared_caches_[l - 1]->touch(b, ctx)) {
        hit_level = l;
        break;
      }
    }
    if (hit_level == kNoHit) {
      stats_.count_miss(request.size);
      hit_level = levels_;  // disk
    } else {
      stats_.count_hit(hit_level, request.size);
    }
    // Dirty data lives at the client copy: write it back to disk when the
    // client evicts it (the deeper inclusive copies are stale). A sized
    // insert can push out several residents; a block too big for the level
    // is bypassed (not admitted) and evicts nothing.
    const EvictResult ev = client.insert(b, ctx);
    ev.for_each([&](BlockId victim) {
      audit_emit(AuditEvent::Kind::kEvict, victim, 0, kAuditNoLevel,
                 request.client);
      dirty_.write_back(victim, 0);
    });
    if (ev.admitted) {
      audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 0, request.client,
                 false, request.size);
    } else {
      // Uncacheable write (block bigger than the client cache): straight
      // through to disk.
      dirty_.write_back(b, 0);
    }
    for (std::size_t l = 1; l < hit_level && l < levels_; ++l) {
      const EvictResult sev = shared_caches_[l - 1]->insert(b, ctx);
      sev.for_each(
          [&](BlockId victim) { audit_emit(AuditEvent::Kind::kEvict, victim, l); });
      if (sev.admitted)
        audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, l, 0, false,
                   request.size);
    }
  }

  // The lines the client-level probe touches (its LRU index and the dirty
  // map). Shared levels are only reached on a client miss, so their groups
  // are not worth the prefetch slots on the common path.
  void prefetch(const Request& request) const override {
    if (request.client >= client_caches_.size()) return;
    client_caches_[request.client]->prefetch(request.block);
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
  const char* name() const override { return "indLRU"; }

  AuditTraits audit_traits() const override {
    AuditTraits t;
    t.supported = true;
    t.clients = client_caches_.size();
    t.capacities.push_back(client_caches_[0]->capacity());
    for (const PolicyPtr& s : shared_caches_) t.capacities.push_back(s->capacity());
    return t;
  }

  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    if (client_caches_[client]->contains(block)) out.push_back(0);
    for (std::size_t l = 1; l < levels_; ++l) {
      if (shared_caches_[l - 1]->contains(block)) out.push_back(l);
    }
  }

  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    return level == 0 ? client_caches_[client]->size()
                      : shared_caches_[level - 1]->size();
  }

  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    return level == 0 ? client_caches_[client]->used_bytes()
                      : shared_caches_[level - 1]->used_bytes();
  }

 private:
  static constexpr std::size_t kNoHit = static_cast<std::size_t>(-1);

  std::size_t levels_;
  std::vector<PolicyPtr> client_caches_;
  std::vector<PolicyPtr> shared_caches_;  // levels 1..n-1
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
};

}  // namespace

SchemePtr make_ind_lru(std::vector<std::size_t> caps, std::size_t n_clients) {
  return std::make_unique<IndLruScheme>(std::move(caps), n_clients);
}

}  // namespace ulc
