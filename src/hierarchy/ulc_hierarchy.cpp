// Drivers wiring the ULC client engine(s) into the simulated hierarchy.
//
// Single client (Figure 6): one UlcClient owns every level's placement; the
// lower levels have no decisions to make, so the driver only has to account
// hits, misses and Demote transfers.
//
// Multi client (Figure 7, §3.2.2): one UlcClient per client, each with an
// elastic second level, over one shared GlruServer. The driver plays the
// network: it forwards Retrieve/Demote commands, queues the server's
// replacement notices per owner, and delivers them before the owner's next
// request (the paper piggybacks them on the next retrieved block; delivery
// order is identical in a trace-driven simulation). Shared blocks taken to
// another client's L1 leave other clients' metadata stale; the driver
// reconciles that at access time (counted as stale_syncs).
#include <memory>
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "ulc/glru_server.h"
#include "ulc/ulc_client.h"
#include "util/ensure.h"

namespace ulc {

namespace {

namespace {

// tempLRU buffers are real client memory (paper footnote 3): carve them out
// of the client cache so cross-scheme comparisons stay fair.
std::vector<std::size_t> carve_temp(std::vector<std::size_t> caps,
                                    std::size_t temp_capacity) {
  ULC_REQUIRE(temp_capacity < caps[0],
              "tempLRU must be smaller than the client cache");
  caps[0] -= temp_capacity;
  return caps;
}

}  // namespace

namespace {

UlcConfig single_config(std::vector<std::size_t> caps, std::size_t temp_capacity) {
  UlcConfig cfg;
  cfg.capacities = carve_temp(std::move(caps), temp_capacity);
  cfg.temp_capacity = temp_capacity;
  return cfg;
}

}  // namespace

class UlcSingleScheme final : public MultiLevelScheme {
 public:
  UlcSingleScheme(std::vector<std::size_t> caps, std::size_t temp_capacity)
      : client_(single_config(std::move(caps), temp_capacity)),
        temp_capacity_(temp_capacity) {
    stats_.resize(client_.levels());
  }

  void access(const Request& request) override {
    ++stats_.references;
    const UlcAccess& a = client_.access(request.block, request.size);
    if (request.op == Op::kWrite) {
      if (a.placed_level != kLevelOut) {
        dirty_.mark(request.block, request.size);
      } else {
        dirty_.write_through(request.block, request.size);  // uncached write
      }
    }
    if (a.temp_hit) {
      // Block served from the client's tempLRU buffers: L1-speed. If the
      // engine repositioned it at a lower level than where a copy already
      // sits, the client ships it down — costed like a demotion.
      stats_.count_hit(0, request.size);
      if (a.placed_level != kLevelOut && a.placed_level > 0 &&
          a.placed_level != a.hit_level) {
        for (std::size_t k = 0; k < a.placed_level; ++k)
          stats_.count_demote(k, a.retrieve.size);
      }
    } else if (a.hit_level != kLevelOut) {
      stats_.count_hit(a.hit_level, request.size);
    } else {
      stats_.count_miss(request.size);
    }
    for (const DemoteCmd& cmd : a.demotions) {
      // A demote to "out" discards the block at its source level — after a
      // write-back if it is dirty. Otherwise a multi-hop Demote(b, f, t)
      // crosses every link between f and t.
      if (cmd.to == kLevelOut) continue;
      for (std::size_t k = cmd.from; k < cmd.to; ++k)
        stats_.count_demote(k, cmd.size);
    }
    if (auditing()) emit_events(request.block, a);
    for (const DemoteCmd& cmd : a.demotions) {
      if (cmd.to == kLevelOut) dirty_.write_back(cmd.block, cmd.from);
    }
  }

  // Stage-1 prefetch: the block's groups in the uniLRUstack index and the
  // dirty set — pure prefetch instructions, no dependent loads.
  void prefetch(const Request& request) const override {
    client_.prefetch_index(request.block);
    dirty_.prefetch(request.block);
  }

  // Pipelined loop over direct calls (the class is final, so access() and
  // prefetch() devirtualize): while access i runs, the group prefetches for
  // i+4 are already in flight — several slots ahead, because one access
  // (~70ns) is not enough to cover a DRAM miss; four gives margin without
  // risking eviction before use. A deeper stage that resolved the next
  // request's index entry and prefetched its node was tried and REGRESSED
  // ~8%: with the hash group already prefetched, the extra find per request
  // costs more than the node-line stall it hides. The audit-sink check is
  // hoisted to one test per batch: auditing runs (test-only) keep the plain
  // per-request loop.
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
    // tempLRU copies live outside the uniLRUstack's residency model, so the
    // footnote-3 variant is stats-checked only.
    t.supported = temp_capacity_ == 0;
    t.exclusive = true;
    t.bottom_evict_only = true;
    for (std::size_t l = 0; l < client_.levels(); ++l)
      t.capacities.push_back(client_.capacity(l));
    return t;
  }

  void audit_resident_levels(ClientId, BlockId block,
                             std::vector<std::size_t>& out) const override {
    const std::size_t l = client_.level_of(block);
    if (l != kLevelOut) out.push_back(l);
  }

  std::size_t audit_level_size(ClientId, std::size_t level) const override {
    return client_.level_size(level);
  }

  std::uint64_t audit_level_bytes(ClientId, std::size_t level) const override {
    return client_.level_bytes(level);
  }

  bool audit_check_internal() const override { return client_.check_consistency(); }
  std::size_t audit_stack_count() const override { return 1; }
  const UniLruStack* audit_stack(std::size_t) const override {
    return &client_.stack();
  }

  // The directory *is* the residency model in single-client ULC, so a
  // resync both repairs the metadata and (conceptually) acknowledges the
  // lost copy — narrated as kLost so the shadow auditor drops it too.
  bool supports_resync() const override { return true; }

  bool resync_drop(ClientId, BlockId block, std::size_t level) override {
    if (!client_.resync_evict(block, level)) return false;
    // The copy (and any dirty data) is gone: measured as loss, not written
    // back.
    dirty_.record_loss(block, level);
    audit_emit(AuditEvent::Kind::kLost, block, level);
    return true;
  }

  std::size_t resync_level(ClientId, std::size_t level) override {
    std::vector<BlockId> lost;
    const std::size_t n = client_.resync_wipe_level(level, &lost);
    for (BlockId b : lost) {
      dirty_.record_loss(b, level);
      audit_emit(AuditEvent::Kind::kLost, b, level);
    }
    return n;
  }

  const UlcClient& client() const { return client_; }

 private:
  // Narrates the access in physical process order: the Retrieve serve, then
  // the Demote cascade top-down — the order the client actually issues the
  // transfers on the wire (§3.2.1) — then the placement of the requested
  // block. Byte budgets are audited at end of access, so a transfer may
  // transiently land before the slot below it drains. A Demote(b, f, out) is
  // a discard at f with no transfer — the collapsed cascade through every
  // lower level — hence kEvict with through_bottom.
  void emit_events(BlockId block, const UlcAccess& a) {
    if (a.temp_hit) return;  // only with tempLRU, which is unsupported
    if (a.hit_level != kLevelOut && a.placed_level == a.hit_level) return;
    if (a.hit_level != kLevelOut)
      audit_emit(AuditEvent::Kind::kServe, block, a.hit_level);
    for (const DemoteCmd& cmd : a.demotions) {
      if (cmd.to == kLevelOut) {
        audit_emit(AuditEvent::Kind::kEvict, cmd.block, cmd.from, kAuditNoLevel,
                   0, /*through_bottom=*/true);
      } else {
        audit_emit(AuditEvent::Kind::kDemote, cmd.block, cmd.from, cmd.to);
      }
    }
    if (a.placed_level != kLevelOut)
      audit_emit(AuditEvent::Kind::kPlace, block, kAuditNoLevel, a.placed_level,
                 0, /*through_bottom=*/false, a.retrieve.size);
  }

  UlcClient client_;
  std::size_t temp_capacity_;
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
};

class UlcMultiScheme final : public MultiLevelScheme {
 public:
  UlcMultiScheme(std::size_t client_cap, std::size_t server_cap,
                 std::size_t n_clients, std::size_t temp_capacity)
      : server_(server_cap), temp_capacity_(temp_capacity) {
    ULC_REQUIRE(n_clients >= 1, "ULC-multi needs at least one client");
    UlcConfig cfg;
    cfg.capacities = carve_temp({client_cap, 0}, temp_capacity);
    cfg.last_level_elastic = true;
    cfg.temp_capacity = temp_capacity;
    for (std::size_t c = 0; c < n_clients; ++c)
      clients_.push_back(std::make_unique<UlcClient>(cfg));
    pending_notices_.resize(n_clients);
    stats_.resize(2);
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < clients_.size(), "client id out of range");
    ++stats_.references;
    const ClientId c = request.client;
    UlcClient& client = *clients_[c];

    deliver_notices(c);

    // Reconcile shared-block state: another client may have taken a block
    // this client still believes is at the server.
    if (client.level_of(request.block) == 1 && !server_.contains(request.block)) {
      ++stats_.stale_syncs;
      client.external_evict(request.block);
    }

    const UlcAccess& a = client.access(request.block, request.size);
    if (request.op == Op::kWrite) {
      if (a.placed_level != kLevelOut) {
        dirty_.mark(request.block, request.size);
      } else {
        dirty_.write_through(request.block, request.size);  // uncached write
      }
    }

    if (a.temp_hit) {
      // Served from the client's tempLRU buffers at L1 speed. Server-side
      // bookkeeping still follows the engine's direction: a server copy is
      // kept (and refreshed on the piggybacked traffic) or dropped when the
      // block moved up to the client cache proper.
      stats_.count_hit(0, request.size);
      if (a.hit_level == 1) {
        if (a.retrieve.cache_at == 1) {
          server_.refresh(request.block, c);
        } else {
          take_respecting_owner(request.block, c);
        }
      } else if (a.retrieve.cache_at == 1) {
        // Uncached block directed to the server level: if another client
        // already placed a shared copy, just refresh it; otherwise ship the
        // local copy down (costed as a demotion transfer).
        if (server_.contains(request.block)) {
          server_.refresh(request.block, c);
        } else {
          stats_.count_demote(0, a.retrieve.size);
          if (!place_at_server(request.block, c, a.retrieve.size).admitted)
            unplace(request.block, c);
        }
      }
    } else if (a.hit_level == 0) {
      stats_.count_hit(0, request.size);
    } else if (a.hit_level == 1) {
      stats_.count_hit(1, request.size);
      if (a.retrieve.cache_at == 1) {
        const bool ok = server_.refresh(request.block, c);
        ULC_ENSURE(ok, "server lost a block the client was promised");
      } else {
        take_respecting_owner(request.block, c);
      }
    } else {
      // The engine believes the block is uncached, but a shared copy may sit
      // at the server, placed there under another client's direction.
      if (server_.contains(request.block)) {
        stats_.count_hit(1, request.size);
        if (a.retrieve.cache_at == 1) {
          server_.refresh(request.block, c);
        } else if (a.retrieve.cache_at == 0) {
          take_respecting_owner(request.block, c);
        }
        // cache_at == out: a pass-through read; gLRU order is driven by
        // cache requests only, so the server copy and its recency stay.
      } else {
        stats_.count_miss(request.size);
        if (a.retrieve.cache_at == 1) {
          if (place_at_server(request.block, c, a.retrieve.size).admitted) {
            audit_emit(AuditEvent::Kind::kPlace, request.block, kAuditNoLevel,
                       1, c, /*through_bottom=*/false, a.retrieve.size);
          } else {
            unplace(request.block, c);
          }
        }
      }
    }

    for (const DemoteCmd& d : a.demotions) {
      ULC_ENSURE(d.from == 0 && d.to == 1, "multi-client ULC demotes only L1->L2");
      stats_.count_demote(0, d.size);
      const PlaceOutcome r = place_at_server(d.block, c, d.size);
      if (!r.admitted) {
        // The transfer was attempted — the client has no server directory —
        // but the server cannot hold a block larger than its whole budget:
        // charge the link, then the block leaves through the bottom.
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
    // The requested block's own landing at this client's L1 goes last: the
    // demotion cascade above freed its slot.
    if (!a.temp_hit && a.placed_level == 0 && a.hit_level != 0)
      audit_emit(AuditEvent::Kind::kPlace, request.block, kAuditNoLevel, 0, c,
                 /*through_bottom=*/false, a.retrieve.size);
  }

  // Stage-1 prefetch: the owning client's stack index, the shared server's
  // index, and the dirty set — the three maps access() probes first.
  void prefetch(const Request& request) const override {
    if (request.client >= clients_.size()) return;
    clients_[request.client]->prefetch_index(request.block);
    server_.prefetch(request.block);
    dirty_.prefetch(request.block);
  }

  // Same pipelined loop as the single-client driver (and the same verdict
  // on a deeper resolve stage: measured as a regression, see there).
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
    t.supported = temp_capacity_ == 0;
    t.bottom_evict_only = true;
    t.clients = clients_.size();
    t.capacities = {clients_[0]->capacity(0), server_.capacity()};
    return t;
  }

  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    // The engine's metadata is authoritative for the client's own cache;
    // server residency comes from the server itself (per-client views of it
    // are allowed to lag behind the piggybacked notices).
    if (clients_[client]->level_of(block) == 0) out.push_back(0);
    if (server_.contains(block)) out.push_back(1);
  }

  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->level_size(0) : server_.size();
  }

  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->level_bytes(0) : server_.used_bytes();
  }

  bool audit_check_internal() const override {
    for (const auto& cl : clients_) {
      if (!cl->check_consistency()) return false;
    }
    return server_.check_consistency();
  }

  std::size_t audit_stack_count() const override { return clients_.size(); }
  const UniLruStack* audit_stack(std::size_t index) const override {
    return &clients_[index]->stack();
  }

  bool supports_resync() const override { return true; }

  // kLost is narrated only when a *real* copy disappears (the server held
  // the block); dropping a client's stale level-1 claim is metadata-only —
  // the shadow never saw that copy, so no event.
  bool resync_drop(ClientId client, BlockId block, std::size_t level) override {
    if (level == 0) {
      if (!clients_[client]->resync_evict(block, 0)) return false;
      dirty_.record_loss(block, 0);
      audit_emit(AuditEvent::Kind::kLost, block, 0, kAuditNoLevel, client);
      return true;
    }
    const bool had = server_.contains(block);
    if (had) server_.take(block);
    bool claimed = false;
    for (auto& cl : clients_) {
      if (cl->resync_evict(block, 1)) claimed = true;
    }
    if (!had && !claimed) return false;
    if (had) {
      dirty_.record_loss(block, 1);
      audit_emit(AuditEvent::Kind::kLost, block, 1);
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
    const std::size_t n = server_.wipe(&lost);
    for (BlockId b : lost) {
      dirty_.record_loss(b, 1);
      audit_emit(AuditEvent::Kind::kLost, b, 1);
    }
    for (auto& cl : clients_) cl->resync_wipe_level(1);
    return n;
  }

  const GlruServer& server() const { return server_; }
  const UlcClient& client(std::size_t c) const { return *clients_[c]; }

 private:
  // A client moving a block up to its own cache removes the server copy
  // only if it owns it there. A copy directed to the server by *another*
  // client stays — the paper's "cached on the highest level among all the
  // clients' direction" rule for shared blocks — so the remaining clients
  // keep their server hits while the taker holds a private copy.
  void take_respecting_owner(BlockId block, ClientId taker) {
    if (!server_.contains(block)) return;
    if (server_.owner_of(block) == taker) {
      audit_emit(AuditEvent::Kind::kServe, block, 1, kAuditNoLevel, taker);
      server_.take(block);
    }
  }

  void deliver_notices(ClientId c) {
    for (BlockId b : pending_notices_[c]) {
      // The block may have been re-placed (and so be live again) since the
      // notice was generated; deliver only if the eviction still stands.
      if (clients_[c]->level_of(b) == 1 && !server_.contains(b))
        clients_[c]->external_evict(b);
    }
    pending_notices_[c].clear();
  }

  struct PlaceOutcome {
    bool merged = false;    // the server already held a shared copy
    bool admitted = true;   // false: larger than the whole server budget
  };

  // Emits the evictions the placement forced (a sized placement can replace
  // several gLRU bottoms at once), so callers emitting the incoming block's
  // own event after the call keep the free-slot-before-fill order.
  PlaceOutcome place_at_server(BlockId block, ClientId owner, SizeUnits size) {
    PlaceOutcome out;
    out.merged = server_.contains(block);
    const GlruServer::PlaceResult r = server_.place(block, owner, size);
    out.admitted = r.admitted;
    if (server_.full() && !announced_full_) {
      announced_full_ = true;
      for (auto& cl : clients_) cl->set_elastic_full(true);
    }
    r.for_each([&](const GlruServer::Victim& v) {
      audit_emit(AuditEvent::Kind::kEvict, v.block, 1, kAuditNoLevel, v.owner);
      dirty_.write_back(v.block, 1);
      ++stats_.eviction_notices;
      if (v.owner == owner) {
        // Local knowledge: the requester learns immediately.
        if (clients_[owner]->level_of(v.block) == 1)
          clients_[owner]->external_evict(v.block);
      } else {
        pending_notices_[v.owner].push_back(v.block);
      }
    });
    return out;
  }

  // Repairs the engine's claim after a declined server placement: the block
  // is not cached anywhere, so the level-1 directory entry goes and any
  // dirty data is written straight through to disk.
  void unplace(BlockId block, ClientId c) {
    if (clients_[c]->level_of(block) == 1) clients_[c]->external_evict(block);
    dirty_.write_back(block, 0);
  }

  std::vector<std::unique_ptr<UlcClient>> clients_;
  DirtyLedger dirty_{*this, stats_};
  GlruServer server_;
  std::vector<std::vector<BlockId>> pending_notices_;
  bool announced_full_ = false;
  std::size_t temp_capacity_;
  HierarchyStats stats_;
};

}  // namespace

SchemePtr make_ulc(std::vector<std::size_t> caps, std::size_t temp_capacity) {
  return std::make_unique<UlcSingleScheme>(std::move(caps), temp_capacity);
}

SchemePtr make_ulc_multi(std::size_t client_cap, std::size_t server_cap,
                         std::size_t n_clients, std::size_t temp_capacity) {
  return std::make_unique<UlcMultiScheme>(client_cap, server_cap, n_clients,
                                          temp_capacity);
}

}  // namespace ulc
