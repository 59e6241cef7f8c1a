// LRU at the client(s) + a pluggable policy at the shared server — the
// "re-design the low level replacement" approach. MQ (Zhou et al. 2001) is
// the paper's Figure-7 representative; LIRS, ARC and 2Q servers are
// provided as extensions of the same family.
//
// The server policy runs over the stream of client misses (the environment
// these policies were designed for); caching is inclusive and there are no
// demotions.
#include <vector>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "replacement/cache_policy.h"
#include "util/ensure.h"

namespace ulc {

namespace {

class PolicyServerScheme final : public MultiLevelScheme {
 public:
  PolicyServerScheme(std::size_t client_cap, PolicyPtr server,
                     std::size_t n_clients, std::string name, bool auditable)
      : server_(std::move(server)), name_(std::move(name)), auditable_(auditable) {
    ULC_REQUIRE(n_clients >= 1, "needs at least one client");
    for (std::size_t c = 0; c < n_clients; ++c)
      clients_.push_back(make_lru(client_cap));
    stats_.resize(2);
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < clients_.size(), "client id out of range");
    ++stats_.references;
    CachePolicy& client = *clients_[request.client];
    const BlockId b = request.block;
    AccessContext ctx;
    ctx.size = request.size;

    if (request.op == Op::kWrite) dirty_.mark(b, request.size);
    if (client.touch(b, ctx)) {
      stats_.count_hit(0, request.size);
      return;
    }
    EvictResult sev;
    if (server_->access(b, ctx, &sev)) {
      stats_.count_hit(1, request.size);
    } else {
      stats_.count_miss(request.size);  // server fetched it from disk and cached it (access()
                        // already inserted it into MQ)
      sev.for_each(
          [&](BlockId victim) { audit_emit(AuditEvent::Kind::kEvict, victim, 1); });
      if (sev.admitted)
        audit_emit(AuditEvent::Kind::kPlace, b, kAuditNoLevel, 1, 0, false,
                   request.size);
    }
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
  }

  void prefetch(const Request& request) const override {
    if (request.client >= clients_.size()) return;
    clients_[request.client]->prefetch(request.block);
    server_->prefetch(request.block);
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
  const char* name() const override { return name_.c_str(); }

  AuditTraits audit_traits() const override {
    AuditTraits t;
    // The audit contract additionally needs the server policy to change
    // residency only through insert()'s single EvictResult. LRU and MQ
    // satisfy that; LIRS-family policies shuffle residency on hits, so
    // make_policy_hierarchy builds a non-auditable scheme (stats-only
    // checks still apply).
    t.supported = auditable_;
    t.clients = clients_.size();
    t.capacities = {clients_[0]->capacity(), server_->capacity()};
    return t;
  }

  void audit_resident_levels(ClientId client, BlockId block,
                             std::vector<std::size_t>& out) const override {
    if (clients_[client]->contains(block)) out.push_back(0);
    if (server_->contains(block)) out.push_back(1);
  }

  std::size_t audit_level_size(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->size() : server_->size();
  }

  std::uint64_t audit_level_bytes(ClientId client, std::size_t level) const override {
    return level == 0 ? clients_[client]->used_bytes() : server_->used_bytes();
  }

 private:
  std::vector<PolicyPtr> clients_;
  PolicyPtr server_;
  DirtyLedger dirty_{*this, stats_};
  HierarchyStats stats_;
  std::string name_;
  bool auditable_;
};

}  // namespace

SchemePtr make_mq_hierarchy(std::size_t client_cap, std::size_t server_cap,
                            std::size_t n_clients, std::size_t queue_count,
                            std::uint64_t life_time) {
  MqConfig cfg;
  cfg.capacity = server_cap;
  cfg.queue_count = queue_count;
  cfg.life_time = life_time;
  return std::make_unique<PolicyServerScheme>(client_cap, make_mq(cfg), n_clients,
                                              "LRU+MQ", /*auditable=*/true);
}

SchemePtr make_policy_hierarchy(std::size_t client_cap, PolicyPtr server_policy,
                                std::size_t n_clients) {
  const std::string name = std::string("LRU+") + server_policy->name();
  return std::make_unique<PolicyServerScheme>(client_cap, std::move(server_policy),
                                              n_clients, name, /*auditable=*/false);
}

}  // namespace ulc
