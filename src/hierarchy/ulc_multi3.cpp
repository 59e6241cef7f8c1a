// Three-level multi-client ULC: per-client caches over a shared server
// cache over a shared disk-array cache — the paper's §3.2.2 protocol
// generalized to more than one shared level (its single-client protocol
// already handles arbitrary depth; this supplies the multi-client side).
//
// Each shared level runs its own gLRU with owners. The new wrinkle is what
// a full shared level does with its gLRU victim: the server *migrates* it
// down into the array (a server-directed demotion, charged as a transfer on
// the server/array link) rather than dropping it; the array, at the bottom,
// drops (with a write-back if dirty). Owners learn of migrations and
// evictions through the same piggybacked notices as in the two-level
// protocol, now carrying a moved-down/evicted kind.
#include <memory>
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "ulc/glru_server.h"
#include "ulc/ulc_client.h"
#include "util/ensure.h"

namespace ulc {

namespace {

class UlcMulti3Scheme final : public MultiLevelScheme {
 public:
  UlcMulti3Scheme(std::size_t client_cap, std::size_t server_cap,
                  std::size_t array_cap, std::size_t n_clients)
      : server_(server_cap), array_(array_cap) {
    ULC_REQUIRE(n_clients >= 1, "needs at least one client");
    UlcConfig cfg;
    cfg.capacities = {client_cap, 0, 0};
    cfg.first_elastic_level = 1;
    for (std::size_t c = 0; c < n_clients; ++c)
      clients_.push_back(std::make_unique<UlcClient>(cfg));
    pending_.resize(n_clients);
    stats_.resize(3);
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < clients_.size(), "client id out of range");
    ++stats_.references;
    const ClientId c = request.client;
    UlcClient& client = *clients_[c];

    // Deliver pending notices, then make sure the engine's view of the
    // requested block matches reality (shared blocks move underneath us).
    for (BlockId b : pending_[c]) sync(c, b);
    pending_[c].clear();
    if (sync(c, request.block)) ++stats_.stale_syncs;

    client.set_elastic_full(1, server_.full());
    client.set_elastic_full(2, array_.full());

    const UlcAccess& a = client.access(request.block, request.size);
    if (request.op == Op::kWrite) {
      if (a.placed_level != kLevelOut) {
        dirty_.mark(request.block, request.size);
      } else {
        dirty_.write_through(request.block, request.size);  // uncached write
      }
    }

    serve(c, request.block, a);

    for (const DemoteCmd& d : a.demotions) {
      ULC_ENSURE(d.from == 0 && d.to == 1,
                 "client cascades stop at the first shared level");
      stats_.count_demote(0, d.size);
      const PlaceOutcome r = place_at_server(d.block, c, d.size);
      if (!r.admitted) {
        // The transfer happened but the server cannot hold a block larger
        // than its whole budget: charge the link, the block leaves through
        // the bottom.
        audit_emit(AuditEvent::Kind::kCharge, d.block, 0, 1, c,
                   /*through_bottom=*/false, d.size);
        audit_emit(AuditEvent::Kind::kEvict, d.block, 0, kAuditNoLevel, c,
                   /*through_bottom=*/true);
        unplace(d.block, c);
      } else {
        audit_emit(r.merged ? AuditEvent::Kind::kDemoteMerge
                            : AuditEvent::Kind::kDemote,
                   d.block, 0, 1, c);
      }
    }
    if (a.placed_level == 0 && a.hit_level != 0)
      audit_emit(AuditEvent::Kind::kPlace, request.block, kAuditNoLevel, 0, c,
                 /*through_bottom=*/false, a.retrieve.size);
  }

  void prefetch(const Request& request) const override {
    if (request.client >= clients_.size()) return;
    clients_[request.client]->prefetch_index(request.block);
    server_.prefetch(request.block);
    array_.prefetch(request.block);
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
  const char* name() const override { return "ULC"; }

  AuditTraits audit_traits() const override {
    AuditTraits t;
    t.supported = true;
    t.bottom_evict_only = true;
    // Stale client metadata may legitimately serve from the array while
    // another client has since promoted a shared copy to the server, so the
    // reported hit level is a *member* of the resident set, not its top.
    t.exact_hit_level = false;
    t.clients = clients_.size();
    t.capacities = {clients_[0]->capacity(0), server_.capacity(),
                    array_.capacity()};
    return t;
  }

  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    if (clients_[client]->level_of(block) == 0) out.push_back(0);
    if (server_.contains(block)) out.push_back(1);
    if (array_.contains(block)) out.push_back(2);
  }

  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    if (level == 0) return clients_[client]->level_size(0);
    return level == 1 ? server_.size() : array_.size();
  }

  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    if (level == 0) return clients_[client]->level_bytes(0);
    return level == 1 ? server_.used_bytes() : array_.used_bytes();
  }

  bool audit_check_internal() const override {
    for (const auto& cl : clients_) {
      if (!cl->check_consistency()) return false;
    }
    return server_.check_consistency() && array_.check_consistency();
  }

  std::size_t audit_stack_count() const override { return clients_.size(); }
  const UniLruStack* audit_stack(std::size_t index) const override {
    return &clients_[index]->stack();
  }

  bool supports_resync() const override { return true; }

  // Mirrors UlcMultiScheme::resync_drop, generalized to the two shared
  // levels: kLost is narrated only when the shared cache really held the
  // block; dropping stale per-client claims is metadata-only.
  bool resync_drop(ClientId client, BlockId block, std::size_t level) override {
    if (level == 0) {
      if (!clients_[client]->resync_evict(block, 0)) return false;
      dirty_.record_loss(block, 0);
      audit_emit(AuditEvent::Kind::kLost, block, 0, kAuditNoLevel, client);
      return true;
    }
    GlruServer& shared = level == 1 ? server_ : array_;
    const bool had = shared.contains(block);
    if (had) shared.take(block);
    bool claimed = false;
    for (auto& cl : clients_) {
      if (cl->resync_evict(block, level)) claimed = true;
    }
    if (!had && !claimed) return false;
    if (had) {
      dirty_.record_loss(block, level);
      audit_emit(AuditEvent::Kind::kLost, block, level);
    }
    return true;
  }

  std::size_t resync_level(ClientId client, std::size_t level) override {
    std::vector<BlockId> lost;
    if (level == 0) {
      const std::size_t n = clients_[client]->resync_wipe_level(0, &lost);
      for (BlockId b : lost) {
        dirty_.record_loss(b, 0);
        audit_emit(AuditEvent::Kind::kLost, b, 0, kAuditNoLevel, client);
      }
      return n;
    }
    GlruServer& shared = level == 1 ? server_ : array_;
    const std::size_t n = shared.wipe(&lost);
    for (BlockId b : lost) {
      dirty_.record_loss(b, level);
      audit_emit(AuditEvent::Kind::kLost, b, level);
    }
    for (auto& cl : clients_) cl->resync_wipe_level(level);
    return n;
  }

  const GlruServer& server() const { return server_; }
  const GlruServer& array() const { return array_; }

 private:
  struct PlaceOutcome {
    bool merged = false;    // the shared cache already held the copy
    bool admitted = true;   // false: larger than that cache's whole budget
  };

  void serve(ClientId c, BlockId b, const UlcAccess& a) {
    const SizeUnits size = a.retrieve.size;
    if (a.hit_level == 0) {
      stats_.count_hit(0, size);
      return;
    }
    if (a.hit_level == 1) {
      stats_.count_hit(1, size);
      route_from_server(c, b, a.retrieve.cache_at, size);
      return;
    }
    if (a.hit_level == 2) {
      stats_.count_hit(2, size);
      route_from_array(c, b, a.retrieve.cache_at, size);
      return;
    }
    // Engine miss: a shared copy may still exist under another client's
    // direction.
    if (server_.contains(b)) {
      stats_.count_hit(1, size);
      if (a.retrieve.cache_at != kLevelOut)
        route_from_server(c, b, a.retrieve.cache_at, size);
      return;
    }
    if (array_.contains(b)) {
      stats_.count_hit(2, size);
      if (a.retrieve.cache_at != kLevelOut)
        route_from_array(c, b, a.retrieve.cache_at, size);
      return;
    }
    stats_.count_miss(size);
    if (a.retrieve.cache_at == 1) {
      if (place_at_server(b, c, size).admitted) {
        audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 1, c,
                   /*through_bottom=*/false, size);
      } else {
        unplace(b, c);
      }
    }
    if (a.retrieve.cache_at == 2) {
      if (place_at_array(b, c, size).admitted) {
        audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 2, c,
                   /*through_bottom=*/false, size);
      } else {
        unplace(b, c);
      }
    }
  }

  // The block is at the server; move/keep it per the client's direction.
  void route_from_server(ClientId c, BlockId b, std::size_t cache_at,
                         SizeUnits size) {
    if (cache_at >= 1 && cache_at != kLevelOut) {
      // Stays at the server level (cache_at == 1) or is directed to the
      // array (cache_at == 2: a block ranked down; ship it).
      if (cache_at == 1) {
        server_.refresh(b, c);
      } else {
        const bool took = server_.owner_of(b) == c;
        if (took) server_.take(b);
        stats_.count_demote(1, size);
        const PlaceOutcome r = place_at_array(b, c, size);
        // Narrations of one ship-down: a move (demote, merging or not) when
        // this client owned the server copy, otherwise the copy stays and
        // the transfer is pure accounting (kCharge) plus — if the array did
        // not already hold the shared copy — a fresh copy appearing. An
        // array that cannot hold the block at all turns the move into a
        // bottom eviction (and the charge-only case into a pure charge).
        if (took) {
          if (!r.admitted) {
            audit_emit(AuditEvent::Kind::kCharge, b, 1, 2, c,
                       /*through_bottom=*/false, size);
            audit_emit(AuditEvent::Kind::kEvict, b, 1, kAuditNoLevel, c,
                       /*through_bottom=*/true);
            unplace(b, c);
          } else {
            audit_emit(r.merged ? AuditEvent::Kind::kDemoteMerge
                                : AuditEvent::Kind::kDemote,
                       b, 1, 2, c);
          }
        } else {
          audit_emit(AuditEvent::Kind::kCharge, b, 1, 2, c,
                     /*through_bottom=*/false, size);
          if (r.admitted && !r.merged) {
            audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 2, c,
                       /*through_bottom=*/false, size);
          }
          // Declined and not taken: the other client's server copy stays
          // (dirty data and all); only this client's claim is stale.
          if (!r.admitted) drop_claim(b, c);
        }
      }
    } else if (cache_at == 0) {
      if (server_.owner_of(b) == c) {
        audit_emit(AuditEvent::Kind::kServe, b, 1, kAuditNoLevel, c);
        server_.take(b);
      }
    }
  }

  void route_from_array(ClientId c, BlockId b, std::size_t cache_at,
                        SizeUnits size) {
    if (cache_at == 2) {
      array_.refresh(b, c);
    } else if (cache_at == 1) {
      const bool took = array_.owner_of(b) == c;
      if (took) {
        audit_emit(AuditEvent::Kind::kServe, b, 2, kAuditNoLevel, c);
        array_.take(b);
      }
      const PlaceOutcome r = place_at_server(b, c, size);
      if (r.admitted && !r.merged) {
        audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 1, c,
                   /*through_bottom=*/false, size);
      }
      if (!r.admitted) {
        // If this client took the array copy, the block is gone entirely;
        // otherwise the other client's array copy (and dirty data) stays.
        if (took) unplace(b, c); else drop_claim(b, c);
      }
    } else if (cache_at == 0) {
      if (array_.owner_of(b) == c) {
        audit_emit(AuditEvent::Kind::kServe, b, 2, kAuditNoLevel, c);
        array_.take(b);
      }
    }
  }

  PlaceOutcome place_at_server(BlockId b, ClientId owner, SizeUnits size) {
    PlaceOutcome out;
    out.merged = server_.contains(b);
    const GlruServer::PlaceResult r = server_.place(b, owner, size);
    out.admitted = r.admitted;
    // Server-directed migration: each gLRU victim moves down to the array
    // instead of being dropped; its owner is told via a piggybacked notice.
    // A victim the array cannot hold at all is charged and dropped.
    r.for_each([&](const GlruServer::Victim& v) {
      stats_.count_demote(1, v.size);
      ++stats_.eviction_notices;
      queue_notice(v.owner, v.block);
      const PlaceOutcome vr = place_at_array(v.block, v.owner, v.size);
      if (!vr.admitted) {
        audit_emit(AuditEvent::Kind::kCharge, v.block, 1, 2, v.owner,
                   /*through_bottom=*/false, v.size);
        audit_emit(AuditEvent::Kind::kEvict, v.block, 1, kAuditNoLevel,
                   v.owner, /*through_bottom=*/true);
        dirty_.write_back(v.block, 1);
      } else {
        audit_emit(vr.merged ? AuditEvent::Kind::kDemoteMerge
                             : AuditEvent::Kind::kDemote,
                   v.block, 1, 2, v.owner);
      }
    });
    return out;
  }

  PlaceOutcome place_at_array(BlockId b, ClientId owner, SizeUnits size) {
    PlaceOutcome out;
    out.merged = array_.contains(b);
    const GlruServer::PlaceResult r = array_.place(b, owner, size);
    out.admitted = r.admitted;
    r.for_each([&](const GlruServer::Victim& v) {
      audit_emit(AuditEvent::Kind::kEvict, v.block, 2, kAuditNoLevel, v.owner);
      dirty_.write_back(v.block, 2);
      ++stats_.eviction_notices;
      queue_notice(v.owner, v.block);
    });
    return out;
  }

  // Repairs the engine's claim after a declined shared-cache placement.
  void drop_claim(BlockId b, ClientId c) {
    const std::size_t el = clients_[c]->level_of(b);
    if (el == 1 || el == 2) clients_[c]->external_evict(b);
  }

  // As drop_claim, for the case where no copy remains anywhere: any dirty
  // data is written straight through to disk.
  void unplace(BlockId b, ClientId c) {
    drop_claim(b, c);
    dirty_.write_back(b, 0);
  }

  void queue_notice(ClientId owner, BlockId block) {
    // Self-notices apply immediately (local knowledge); others are delivered
    // before the owner's next request (piggybacked in the real protocol).
    if (owner < clients_.size()) {
      pending_[owner].push_back(block);
    }
  }

  // Repairs the engine's belief about `block` against the shared caches.
  // Returns true if anything had to change.
  bool sync(ClientId c, BlockId b) {
    UlcClient& client = *clients_[c];
    const std::size_t el = client.level_of(b);
    if (el == 1) {
      if (server_.contains(b)) return false;
      if (array_.contains(b)) {
        client.external_demote(b);
        return true;
      }
      client.external_evict(b);
      return true;
    }
    if (el == 2) {
      if (array_.contains(b)) return false;
      client.external_evict(b);
      return true;
    }
    return false;
  }

  std::vector<std::unique_ptr<UlcClient>> clients_;
  GlruServer server_;
  GlruServer array_;
  std::vector<std::vector<BlockId>> pending_;
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
};

}  // namespace

SchemePtr make_ulc_multi_three(std::size_t client_cap, std::size_t server_cap,
                               std::size_t array_cap, std::size_t n_clients) {
  return std::make_unique<UlcMulti3Scheme>(client_cap, server_cap, array_cap,
                                           n_clients);
}

}  // namespace ulc
