// N fully-private single-client hierarchies side by side: client c's
// references go to copy c, and no level is ever shared. This is the
// no-sharing baseline of the multi-client comparison — and, by construction,
// the one scheme family with zero cross-client state, so it is the legitimate
// carrier of supports_partitioned_replay(): replaying each client's request
// subsequence against a fresh instance and summing the per-client counters
// (integer addition, fixed client order) reproduces a serial replay exactly.
#include <functional>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "util/ensure.h"

namespace ulc {

namespace {

class ClientPrivateScheme final : public MultiLevelScheme {
 public:
  explicit ClientPrivateScheme(std::vector<SchemePtr> subs)
      : subs_(std::move(subs)) {
    ULC_REQUIRE(!subs_.empty(), "client-private scheme needs >= 1 client");
    for (const SchemePtr& s : subs_)
      ULC_REQUIRE(s != nullptr, "client-private scheme got a null sub-scheme");
    name_ = std::string("private(") + subs_[0]->name() + ")";
    refresh_stats();
  }

  void access(const Request& request) override {
    ULC_REQUIRE(request.client < subs_.size(),
                "request client id out of range for client-private scheme");
    Request r = request;
    r.client = 0;  // each copy is a single-client hierarchy
    subs_[request.client]->access(r);
    refresh_stats();
  }

  void prefetch(const Request& request) const override {
    if (request.client >= subs_.size()) return;
    Request r = request;
    r.client = 0;
    subs_[request.client]->prefetch(r);
  }

  // Forwards maximal same-client runs to the owning copy's access_batch, so
  // a partitioned (single-client) replay runs the child's devirtualized
  // prefetch pipeline over the whole span. The run is copied once to rewrite
  // the client ids; scratch_ is reused across runs to avoid reallocating.
  void access_batch(std::span<const Request> batch) override {
    std::size_t i = 0;
    while (i < batch.size()) {
      const ClientId c = batch[i].client;
      ULC_REQUIRE(c < subs_.size(),
                  "request client id out of range for client-private scheme");
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j].client == c) ++j;
      scratch_.assign(batch.begin() + static_cast<std::ptrdiff_t>(i),
                      batch.begin() + static_cast<std::ptrdiff_t>(j));
      for (Request& r : scratch_) r.client = 0;
      subs_[c]->access_batch(std::span<const Request>(scratch_));
      i = j;
    }
    refresh_stats();
  }

  bool supports_partitioned_replay() const override { return true; }

  const HierarchyStats& stats() const override { return merged_; }

  void reset_stats() override {
    for (const SchemePtr& s : subs_) s->reset_stats();
    refresh_stats();
  }

  const char* name() const override { return name_.c_str(); }

  // No narration: the copies would each narrate client 0, and re-tagging
  // interleaved events is not worth it for a baseline scheme. Default audit
  // traits already tell the auditor to fall back to conservation checks.

  void set_writeback_journal(WritebackSink* journal) override {
    for (const SchemePtr& s : subs_) s->set_writeback_journal(journal);
  }

 private:
  // Re-sums the per-client counters into merged_ so stats() stays live.
  // Fixed client order; all-integer, so the merge is exact regardless of
  // how the per-client stats were produced.
  void refresh_stats() {
    merged_.clear();
    for (const SchemePtr& s : subs_) merged_.merge_from(s->stats());
  }

  std::vector<SchemePtr> subs_;
  std::string name_;
  std::vector<Request> scratch_;
  HierarchyStats merged_;
};

}  // namespace

SchemePtr make_client_private(const std::function<SchemePtr()>& per_client,
                              std::size_t n_clients) {
  ULC_REQUIRE(n_clients >= 1, "client-private scheme needs >= 1 client");
  std::vector<SchemePtr> subs;
  subs.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) subs.push_back(per_client());
  return std::make_unique<ClientPrivateScheme>(std::move(subs));
}

}  // namespace ulc
