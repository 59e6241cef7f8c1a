#include <gtest/gtest.h>

#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "measures/next_use.h"
#include "replacement/cache_policy.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

Trace loop_trace(std::uint64_t blocks, std::uint64_t refs) {
  auto src = make_loop_source(0, blocks);
  return generate(*src, refs, 1, "loop");
}

TEST(CostModel, PaperThreeLevelNumbers) {
  const CostModel m = CostModel::paper_three_level();
  EXPECT_DOUBLE_EQ(m.hit_time(0), 0.0);
  EXPECT_DOUBLE_EQ(m.hit_time(1), 1.0);
  EXPECT_DOUBLE_EQ(m.hit_time(2), 1.2);
  EXPECT_DOUBLE_EQ(m.miss_time(), 11.2);
  EXPECT_DOUBLE_EQ(m.demote_cost(0), 1.0);
  EXPECT_DOUBLE_EQ(m.demote_cost(1), 0.2);
}

TEST(CostModel, BreakdownMatchesHandComputation) {
  HierarchyStats s;
  s.resize(3);
  s.references = 100;
  s.level_hits = {50, 20, 10};
  s.misses = 20;
  s.demotions = {30, 10, 0};
  const CostModel m = CostModel::paper_three_level();
  const AccessTimeBreakdown b = compute_access_time(s, m);
  EXPECT_DOUBLE_EQ(b.hit_component, 0.5 * 0 + 0.2 * 1.0 + 0.1 * 1.2);
  EXPECT_DOUBLE_EQ(b.miss_component, 0.2 * 11.2);
  EXPECT_DOUBLE_EQ(b.demotion_component, 0.3 * 1.0 + 0.1 * 0.2);
  EXPECT_DOUBLE_EQ(b.total(),
                   b.hit_component + b.miss_component + b.demotion_component);
}

TEST(IndLru, InclusiveDuplicationWastesLowerLevels) {
  // Zipf working set that fits in one level: indLRU duplicates it at every
  // level, so L2/L3 add nearly nothing.
  auto src = make_zipf_source(0, 256, 1.1, true, 3);
  const Trace t = generate(*src, 30000, 5, "z");
  auto scheme = make_ind_lru({128, 128, 128});
  for (const Request& r : t) scheme->access(r);
  const HierarchyStats& s = scheme->stats();
  EXPECT_GT(s.hit_ratio(0), 0.5);
  EXPECT_LT(s.hit_ratio(1) + s.hit_ratio(2), 0.35);
}

TEST(IndLru, LowerLevelServesClientMissWorkingSet) {
  // Loop larger than L1 but within L1+L2 under *independent* LRU still
  // thrashes both (the filtered stream has no recency left) — the classic
  // multi-level caching failure the paper motivates with.
  const Trace t = loop_trace(192, 20000);
  auto scheme = make_ind_lru({128, 128});
  for (const Request& r : t) scheme->access(r);
  EXPECT_LT(scheme->stats().total_hit_ratio(), 0.05);
}

TEST(UniLru, AggregateHitRateEqualsSingleLru) {
  // uniLRU's defining property (paper goal 1): the hierarchy behaves like
  // one LRU of the aggregate size.
  auto src = make_zipf_source(0, 2000, 0.9, true, 7);
  const Trace t = generate(*src, 60000, 9, "z");
  auto scheme = make_uni_lru({100, 300, 200});
  auto single = make_lru(600);
  std::uint64_t single_hits = 0;
  for (const Request& r : t) {
    scheme->access(r);
    single_hits += single->access(r.block, {}) ? 1 : 0;
  }
  std::uint64_t multi_hits = 0;
  for (auto h : scheme->stats().level_hits) multi_hits += h;
  EXPECT_EQ(multi_hits, single_hits);
}

TEST(UniLru, LoopBeyondL1DemotesEveryReference) {
  // Loop that fits L1+L2 but not L1: every reference hits L2 and pushes a
  // block across the first boundary — the 100% demotion rate the paper
  // reports for tpcc1.
  const Trace t = loop_trace(150, 20000);
  auto scheme = make_uni_lru({100, 100});
  for (const Request& r : t) scheme->access(r);
  scheme->reset_stats();
  for (const Request& r : t) scheme->access(r);
  const HierarchyStats& s = scheme->stats();
  EXPECT_GT(s.hit_ratio(1), 0.99);
  EXPECT_LT(s.hit_ratio(0), 0.01);
  EXPECT_GT(s.demotion_ratio(0), 0.99);
}

TEST(UniLru, LruFriendlyTraceHasFewDemotions) {
  auto src = make_temporal_source(0, 500, 0.05, 6.0);
  const Trace t = generate(*src, 30000, 11, "t");
  auto scheme = make_uni_lru({200, 200});
  for (const Request& r : t) scheme->access(r);
  EXPECT_LT(scheme->stats().demotion_ratio(0), 0.35);
  EXPECT_GT(scheme->stats().hit_ratio(0), 0.6);
}

TEST(Reload, HitRatesIdenticalToUniLruButNoDemotions) {
  auto src = make_zipf_source(0, 1000, 0.8, true, 13);
  const Trace t = generate(*src, 40000, 15, "z");
  auto uni = make_uni_lru({100, 200});
  auto reload = make_reload_uni_lru({100, 200});
  for (const Request& r : t) {
    uni->access(r);
    reload->access(r);
  }
  EXPECT_EQ(uni->stats().level_hits[0], reload->stats().level_hits[0]);
  EXPECT_EQ(uni->stats().level_hits[1], reload->stats().level_hits[1]);
  EXPECT_EQ(uni->stats().misses, reload->stats().misses);
  EXPECT_EQ(uni->stats().demotions[0], reload->stats().reloads[0]);
  EXPECT_EQ(reload->stats().demotions[0], 0u);
  // Cost: reload moves the traffic off the critical path...
  const CostModel m{{1.0, 10.0}};
  const auto bu = compute_access_time(uni->stats(), m);
  const auto br = compute_access_time(reload->stats(), m);
  EXPECT_LT(br.total(), bu.total());
  // ...but pays for it in disk work.
  EXPECT_GT(br.reload_disk_ms, 0.0);
}

TEST(MqHierarchy, ServerProtectsFrequentBlocksFromScans) {
  // Frequent hot set + a flushing loop: an LRU server loses the hot set to
  // the scan, an MQ server keeps it resident in its high queues.
  std::vector<PatternPtr> sources;
  sources.push_back(make_zipf_source(0, 200, 1.1, true, 3));
  sources.push_back(make_loop_source(10000, 600));
  auto src = make_mixture_source(std::move(sources), {0.5, 0.5});
  const Trace t = generate(*src, 50000, 21, "mixed");
  auto mq = make_mq_hierarchy(/*client_cap=*/64, /*server_cap=*/160, 1);
  auto ind = make_ind_lru({64, 160});
  for (const Request& r : t) {
    mq->access(r);
    ind->access(r);
  }
  EXPECT_GT(mq->stats().total_hit_ratio(), ind->stats().total_hit_ratio());
}

TEST(PolicyHierarchy, LirsServerResistsLoopsWhereLruThrashes) {
  // Loop beyond client and server capacities individually: an LRU server
  // thrashes; a LIRS server keeps a resident subset (its single-level
  // LLD-style ranking), so the generic policy-hierarchy factory must beat
  // indLRU here.
  const Trace t = loop_trace(260, 40000);
  auto lirs = make_policy_hierarchy(64, make_lirs(LirsConfig{160, 0.05}), 1);
  auto ind = make_ind_lru({64, 160});
  for (const Request& r : t) {
    lirs->access(r);
    ind->access(r);
  }
  EXPECT_GT(lirs->stats().total_hit_ratio(), ind->stats().total_hit_ratio() + 0.3);
  EXPECT_EQ(std::string(lirs->name()), "LRU+LIRS");
}

TEST(Runner, WarmupResetsStats) {
  const Trace t = loop_trace(50, 10000);
  auto scheme = make_uni_lru({100, 100});
  const RunResult r = run_scheme(*scheme, t, CostModel{{1.0, 10.0}}, 0.1);
  EXPECT_EQ(r.stats.references, 9000u);
  // Loop of 50 fits L1 entirely: after warm-up everything is an L1 hit.
  EXPECT_EQ(r.stats.level_hits[0], 9000u);
  EXPECT_DOUBLE_EQ(r.t_ave_ms, 0.0);
  EXPECT_EQ(r.scheme, std::string("uniLRU"));
}

TEST(UlcScheme, SchemeStatsMatchEngineBehaviour) {
  auto src = make_zipf_source(0, 400, 1.0, true, 17);
  const Trace t = generate(*src, 20000, 19, "z");
  auto scheme = make_ulc({64, 64, 64});
  for (const Request& r : t) scheme->access(r);
  const HierarchyStats& s = scheme->stats();
  std::uint64_t total = s.misses;
  for (auto h : s.level_hits) total += h;
  EXPECT_EQ(total, s.references);
  EXPECT_EQ(s.references, t.size());
}

// ULC vs uniLRU on the tpcc-like loop: same-or-better hit placement with a
// demotion rate lower by orders of magnitude (the paper's headline).
TEST(UlcScheme, LoopPlacementBeatsUniLruOnDemotions) {
  const Trace t = loop_trace(150, 30000);
  auto ulc = make_ulc({100, 100});
  auto uni = make_uni_lru({100, 100});
  const CostModel m{{1.0, 10.0}};
  const RunResult ru = run_scheme(*ulc, t, m);
  const RunResult rn = run_scheme(*uni, t, m);
  EXPECT_LT(ru.stats.demotion_ratio(0), 0.02);
  EXPECT_GT(rn.stats.demotion_ratio(0), 0.99);
  // ULC serves part of the loop from L1 (access-time-aware distribution).
  EXPECT_GT(ru.stats.hit_ratio(0), 0.5);
  EXPECT_LT(ru.t_ave_ms, rn.t_ave_ms);
}

TEST(OptLayout, TotalHitRateEqualsAggregateBelady) {
  auto src = make_zipf_source(0, 800, 0.9, true, 3);
  const Trace t = generate(*src, 40000, 5, "z");
  auto layout = make_opt_layout({50, 150, 100}, t);
  const auto nu = compute_next_use(t);
  auto opt = make_opt(300);
  std::uint64_t opt_hits = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    layout->access(t[i]);
    opt_hits += opt->access(t[i].block, AccessContext{i, nu[i]}) ? 1 : 0;
  }
  std::uint64_t layout_hits = 0;
  for (auto h : layout->stats().level_hits) layout_hits += h;
  EXPECT_EQ(layout_hits, opt_hits);
}

TEST(OptLayout, ServesEveryHitFromTheTopAtAMovementPrice) {
  // The about-to-be-referenced block always has the nearest next use, so a
  // clairvoyant ND layout holds it at L1 by the time it is referenced —
  // Figure 2's "ND puts everything in segment 1". The price is exactly what
  // Figure 3 charges ND with: constant cross-boundary movement.
  auto src = make_zipf_source(0, 800, 1.0, true, 7);
  const Trace t = generate(*src, 40000, 9, "z");
  auto layout = make_opt_layout({100, 100, 100}, t);
  for (const Request& r : t) layout->access(r);
  const HierarchyStats& s = layout->stats();
  EXPECT_GT(s.hit_ratio(0), 0.99 * s.total_hit_ratio());
  EXPECT_GT(s.demotion_ratio(0), 0.2);  // heavy layout movement
}

class OptLayoutDominanceTest : public ::testing::TestWithParam<int> {};

TEST_P(OptLayoutDominanceTest, NoSchemeBeatsIt) {
  PatternPtr src;
  switch (GetParam()) {
    case 0:
      src = make_uniform_source(0, 600);
      break;
    case 1:
      src = make_zipf_source(0, 600, 1.0, true, 5);
      break;
    case 2:
      src = make_loop_source(0, 250);
      break;
    default:
      src = make_temporal_source(0, 600, 0.1, 4.0);
      break;
  }
  const Trace t = generate(*src, 30000, 11, "w");
  const std::vector<std::size_t> caps{64, 64, 64};
  auto layout = make_opt_layout(caps, t);
  auto ulc = make_ulc(caps);
  auto uni = make_uni_lru(caps);
  for (const Request& r : t) {
    layout->access(r);
    ulc->access(r);
    uni->access(r);
  }
  EXPECT_GE(layout->stats().total_hit_ratio() + 1e-9,
            ulc->stats().total_hit_ratio());
  EXPECT_GE(layout->stats().total_hit_ratio() + 1e-9,
            uni->stats().total_hit_ratio());
}

INSTANTIATE_TEST_SUITE_P(Workloads, OptLayoutDominanceTest,
                         ::testing::Values(0, 1, 2, 3));

// access_batch is contractually "access() in a loop"; every scheme that
// overrides it with a devirtualized prefetch pipeline must produce the exact
// counters of the per-access path, including across arbitrary span splits
// (run_scheme splits at the warmup boundary).
TEST(AccessBatch, EveryOverrideMatchesThePerAccessLoop) {
  std::vector<PatternPtr> sources;
  sources.push_back(make_zipf_source(0, 400, 0.9, true, 3));
  sources.push_back(make_loop_source(10000, 300));
  sources.push_back(make_zipf_source(20000, 500, 1.1, true, 7));
  const Trace t = generate_multi(std::move(sources), {0.5, 0.3, 0.2}, 20000,
                                 13, "batch");
  using Factory = SchemePtr (*)();
  const std::pair<const char*, Factory> factories[] = {
      {"indLRU", [] { return make_ind_lru({64, 128, 256}, 3); }},
      {"uniLRU", [] { return make_uni_lru({64, 128, 256}); }},
      {"uniLRU-multi",
       [] { return make_uni_lru_multi(64, 256, 3, UniLruInsertion::kMru); }},
      {"MQ", [] { return make_mq_hierarchy(64, 256, 3); }},
      {"reload", [] { return make_reload_uni_lru({64, 128, 256}); }},
      {"ULC", [] { return make_ulc({64, 128, 256}); }},
      {"ULC-multi", [] { return make_ulc_multi(64, 256, 3); }},
      {"ULC-multi3", [] { return make_ulc_multi_three(64, 128, 256, 3); }},
  };
  for (const auto& [name, factory] : factories) {
    SchemePtr looped = factory();
    for (const Request& r : t) looped->access(r);
    SchemePtr batched = factory();
    // Uneven splits, including a 1-request span and an empty tail.
    const std::span<const Request> all(t.requests());
    batched->access_batch(all.first(1));
    batched->access_batch(all.subspan(1, 7777));
    batched->access_batch(all.subspan(7778));
    batched->access_batch(all.subspan(t.size()));
    EXPECT_EQ(counters_to_json(looped->stats()).dump(),
              counters_to_json(batched->stats()).dump())
        << name;
  }
}

}  // namespace
}  // namespace ulc
