// Common interface for the multi-level caching schemes of Section 4:
// indLRU, uniLRU (+ multi-client insertion variants), LRU+MQ, eviction-based
// reload, and ULC itself.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "hierarchy/audit.h"
#include "hierarchy/cost_model.h"
#include "replacement/cache_policy.h"
#include "trace/trace.h"
#include "trace/types.h"
#include "ulc/writeback.h"

namespace ulc {

class UniLruStack;

class MultiLevelScheme {
 public:
  virtual ~MultiLevelScheme() = default;

  // Processes one block reference from `request.client`.
  virtual void access(const Request& request) = 0;

  // Issues cache prefetches for the state `access(request)` will touch —
  // the block's hash group(s), nothing more. Strictly non-mutating and made
  // of pure prefetch instructions: it never stalls, never faults, and never
  // changes observable behaviour, so callers may invoke it for any future
  // request (or not at all) without affecting results. run_scheme calls it
  // one request ahead so the lines arrive while the current access runs.
  virtual void prefetch(const Request& request) const { (void)request; }

  // Processes a contiguous run of references. Semantically identical to
  // calling access() in order (the default does exactly that, interleaving
  // prefetch() one request ahead); hot schemes override it with a
  // devirtualized loop — the override's calls into a `final` class compile
  // to direct calls — plus a two-deep prefetch pipeline (DESIGN.md §11).
  virtual void access_batch(std::span<const Request> batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i + 1 < batch.size()) prefetch(batch[i + 1]);
      access(batch[i]);
    }
  }

  // The returned reference stays valid for the scheme's lifetime and is
  // live: its counters reflect every access() and reset_stats() as soon as
  // the call returns. run_scheme's observer captures it once per run.
  virtual const HierarchyStats& stats() const = 0;
  // Drops accumulated statistics (end of the warm-up period) without
  // touching cache contents.
  virtual void reset_stats() = 0;

  virtual const char* name() const = 0;

  // ---- Audit interface (src/check/checked_hierarchy.h) ----
  //
  // Schemes that support auditing narrate block movements into the sink
  // (see audit.h for the emission contract) and answer residency queries so
  // the auditor can detect drift between the narrated protocol and the real
  // cache contents. The default implementation supports nothing: the
  // auditor then falls back to statistics-conservation checks only.

  virtual AuditTraits audit_traits() const { return {}; }
  // Install (or clear, with nullptr) the event sink. Events are appended on
  // every access; the caller owns clearing the vector between accesses.
  virtual void set_audit_sink(std::vector<AuditEvent>* sink) { audit_sink_ = sink; }
  // Appends every level holding `block` to `out`; level 0 means client
  // `client`'s private cache, shared levels are reported for any client.
  virtual void audit_resident_levels(ClientId client, BlockId block,
                                     std::vector<std::size_t>& out) const {
    (void)client;
    (void)block;
    (void)out;
  }
  // Copies held at `level`; for level 0 the count of client `client`'s
  // private cache, for shared levels `client` is ignored.
  virtual std::size_t audit_level_size(ClientId client, std::size_t level) const {
    (void)client;
    (void)level;
    return 0;
  }
  // Occupied SizeUnits at `level` (same slot addressing as
  // audit_level_size). Defaults to the copy count — exact for schemes that
  // only ever see unit-size blocks; size-aware schemes override it with
  // their byte accounting.
  virtual std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const {
    return audit_level_size(client, level);
  }
  // Scheme-internal structural validation (uniLRUstack consistency etc.).
  virtual bool audit_check_internal() const { return true; }
  // ULC schemes expose their clients' uniLRUstacks for the auditor's
  // yardstick checks; others report none.
  virtual std::size_t audit_stack_count() const { return 0; }
  virtual const UniLruStack* audit_stack(std::size_t index) const {
    (void)index;
    return nullptr;
  }

  // ---- Directory resync (src/proto recovery protocol) ----
  //
  // When a faulted run discovers that a level's reply contradicts the
  // client's directory — a stale hit after a level crash, a demote whose
  // data never arrived — the client repairs its metadata through these
  // hooks instead of asserting. Implementations narrate each dropped
  // directory entry as a kLost audit event so the shadow auditor stays in
  // lock-step with the repair. Schemes with no client directory (indLRU)
  // keep the default no-op: their per-level LRU state self-heals.

  virtual bool supports_resync() const { return false; }
  // Drops `client`'s directory claim that `block` lives at `level` (and any
  // matching real copy the scheme itself holds at that level). Returns
  // false when the directory holds no such claim.
  virtual bool resync_drop(ClientId client, BlockId block, std::size_t level) {
    (void)client;
    (void)block;
    (void)level;
    return false;
  }
  // A level restarted empty: drops every directory entry of `client` at
  // `level` (all clients' views for shared levels). Returns the number of
  // entries dropped.
  virtual std::size_t resync_level(ClientId client, std::size_t level) {
    (void)client;
    (void)level;
    return 0;
  }

  // ---- Write-back journal (ulc/writeback.h) ----
  //
  // Install (or clear, with nullptr) the durable-write sink. Schemes report
  // every dirty block leaving the hierarchy through their DirtyLedger
  // (dirty_ledger.h), the only code that reaches the sink; with no sink
  // installed the write-back is still narrated and counted, matching the
  // legacy fire-and-forget cost model exactly.
  virtual void set_writeback_journal(WritebackSink* journal) {
    journal_ = journal;
  }

 protected:
  bool auditing() const { return audit_sink_ != nullptr; }
  void audit_emit(AuditEvent::Kind kind, BlockId block,
                  std::size_t from = kAuditNoLevel, std::size_t to = kAuditNoLevel,
                  ClientId owner = 0, bool through_bottom = false,
                  SizeUnits size = 1) const {
    if (audit_sink_ != nullptr)
      audit_sink_->push_back(
          AuditEvent{kind, block, from, to, owner, through_bottom, size});
  }

 private:
  friend class DirtyLedger;  // narrates kWriteback and feeds journal_
  std::vector<AuditEvent>* audit_sink_ = nullptr;
  WritebackSink* journal_ = nullptr;
};

using SchemePtr = std::unique_ptr<MultiLevelScheme>;

// ---- Factories ----

// Independent LRU at every level. Inclusive: a block fetched from below is
// cached at every level it passes. caps[0] is per client; lower levels are
// shared by all clients.
SchemePtr make_ind_lru(std::vector<std::size_t> caps, std::size_t n_clients = 1);

// Wong & Wilkes unified LRU (DEMOTE), single client, any number of levels:
// one global LRU stack whose segments are the cache levels; every block
// sliding across a segment boundary is a demotion.
SchemePtr make_uni_lru(std::vector<std::size_t> caps);

// Multi-client unified LRU: per-client exclusive LRU caches over a shared
// server cache; demoted blocks enter the server at an insertion point.
enum class UniLruInsertion { kMru, kMiddle, kLru };
const char* uni_lru_insertion_name(UniLruInsertion policy);
SchemePtr make_uni_lru_multi(std::size_t client_cap, std::size_t server_cap,
                             std::size_t n_clients, UniLruInsertion insertion);

// LRU at the client(s), MQ at the shared server (Zhou et al.), inclusive.
SchemePtr make_mq_hierarchy(std::size_t client_cap, std::size_t server_cap,
                            std::size_t n_clients, std::size_t queue_count = 8,
                            std::uint64_t life_time = 0);

// Same structure with any server policy (LIRS/ARC/2Q/...): the whole
// "re-design the second level" family behind one factory.
SchemePtr make_policy_hierarchy(std::size_t client_cap, PolicyPtr server_policy,
                                std::size_t n_clients);

// Eviction-based placement (Chen et al. 2003): structurally uniLRU, but a
// block crossing a boundary is re-read from disk by the lower level instead
// of being demoted over the network (counted in stats().reloads).
SchemePtr make_reload_uni_lru(std::vector<std::size_t> caps);

// OPT-layout: the offline upper bound — Belady content with ND-ordered
// placement across the levels. Must replay exactly `trace` (kept by
// reference; it must outlive the scheme). stats().demotions counts layout
// movement across each boundary.
SchemePtr make_opt_layout(std::vector<std::size_t> caps, const Trace& trace);

// ULC, multiple clients over TWO shared levels (server + disk-array cache):
// the multi-client protocol generalized in depth. Shared-level overflow
// migrates the gLRU victim down (a server-directed demotion) instead of
// dropping it; owners learn via the same piggybacked notices.
SchemePtr make_ulc_multi_three(std::size_t client_cap, std::size_t server_cap,
                               std::size_t array_cap, std::size_t n_clients);

// ULC, single client, any number of levels. `temp_capacity` client buffers
// (carved out of caps[0]) hold pass-through blocks (paper footnote 3).
SchemePtr make_ulc(std::vector<std::size_t> caps, std::size_t temp_capacity = 0);

// ULC, multiple clients sharing one server (two levels): per-client engines
// with an elastic second level, gLRU allocation at the server, delayed
// (piggybacked) eviction notices. `temp_capacity` buffers per client hold
// pass-through blocks (paper footnote 3); they are carved out of client_cap
// so the comparison against the other schemes stays fair.
SchemePtr make_ulc_multi(std::size_t client_cap, std::size_t server_cap,
                         std::size_t n_clients, std::size_t temp_capacity = 0);

}  // namespace ulc
