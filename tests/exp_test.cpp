// Tests for the experiment engine (src/exp): run_matrix determinism across
// thread counts, synthesize-once TraceCache semantics, run_scheme warmup
// edge cases, and the JSON result schema (golden file).
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "util/json.h"

namespace ulc {
namespace {

// ---- JSON writer ----

TEST(Json, ScalarsAndContainers) {
  Json doc = Json::object();
  doc.set("s", "hi");
  doc.set("b", true);
  doc.set("n", nullptr);
  doc.set("i", std::int64_t{-3});
  doc.set("u", std::uint64_t{18446744073709551615ull});
  Json arr = Json::array();
  arr.push(1.5);
  arr.push(Json::object());
  doc.set("a", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"s\":\"hi\",\"b\":true,\"n\":null,\"i\":-3,"
            "\"u\":18446744073709551615,\"a\":[1.5,{}]}");
}

TEST(Json, SetReplacesInPlace) {
  Json doc = Json::object();
  doc.set("k", 1);
  doc.set("other", 2);
  doc.set("k", 3);
  EXPECT_EQ(doc.dump(), "{\"k\":3,\"other\":2}");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t\x01").dump(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Json, DoubleFormattingRoundTripsAndIsStable) {
  EXPECT_EQ(Json::format_double(0.0), "0");
  EXPECT_EQ(Json::format_double(-0.0), "0");
  EXPECT_EQ(Json::format_double(0.1), "0.1");
  EXPECT_EQ(Json::format_double(12800.0), "12800");
  EXPECT_EQ(Json::format_double(1.0 / 3.0), "0.3333333333333333");
  for (double v : {1e-9, 3.14159, 2.658, 65536.5, 1e18, -7.25}) {
    EXPECT_EQ(std::strtod(Json::format_double(v).c_str(), nullptr), v) << v;
  }
}

TEST(Json, PrettyPrint) {
  Json doc = Json::object();
  doc.set("a", 1);
  Json arr = Json::array();
  arr.push(2);
  doc.set("b", std::move(arr));
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

// ---- run_scheme warmup edge cases ----

// Counts accesses and stat resets; "hits" everything at L0.
class CountingScheme : public MultiLevelScheme {
 public:
  CountingScheme() { stats_.resize(2); }
  void access(const Request&) override {
    ++stats_.references;
    ++stats_.level_hits[0];
  }
  const HierarchyStats& stats() const override { return stats_; }
  void reset_stats() override {
    stats_.clear();
    ++resets;
  }
  const char* name() const override { return "counting"; }

  int resets = 0;

 private:
  HierarchyStats stats_;
};

TEST(RunScheme, EmptyTraceReturnsZeroedStats) {
  CountingScheme scheme;
  const Trace empty("empty");
  const RunResult r = run_scheme(scheme, empty, CostModel::paper_two_level());
  EXPECT_EQ(r.stats.references, 0u);
  EXPECT_EQ(r.t_ave_ms, 0.0);
  EXPECT_EQ(r.stats.miss_ratio(), 0.0);
  EXPECT_EQ(r.trace, "empty");
  EXPECT_EQ(scheme.resets, 1);
}

TEST(RunScheme, TinyTraceWarmupResetsExactlyOnce) {
  // 3 references at warmup_fraction 0.1: the warmup rounds down to 0
  // references, but the stats must still be dropped exactly once and every
  // reference measured.
  CountingScheme scheme;
  Trace t("tiny");
  for (int i = 0; i < 3; ++i) t.add(static_cast<BlockId>(i));
  const RunResult r = run_scheme(scheme, t, CostModel::paper_two_level(), 0.1);
  EXPECT_EQ(scheme.resets, 1);
  EXPECT_EQ(r.stats.references, 3u);
}

TEST(RunScheme, WarmupReferencesAreExcluded) {
  CountingScheme scheme;
  Trace t("warm");
  for (int i = 0; i < 100; ++i) t.add(static_cast<BlockId>(i));
  const RunResult r = run_scheme(scheme, t, CostModel::paper_two_level(), 0.25);
  EXPECT_EQ(scheme.resets, 1);
  EXPECT_EQ(r.stats.references, 75u);
}

// ---- TraceCache ----

TEST(TraceCache, SynthesizesOncePerKeyUnderContention) {
  exp::TraceCache cache;
  const exp::TraceSpec spec{"zipf-small", 1.0, 1};
  std::vector<const Trace*> seen(16, nullptr);
  exp::parallel_for(seen.size(), 8,
                    [&](std::size_t i) { seen[i] = &cache.get(spec); });
  EXPECT_EQ(cache.synthesis_count(), 1u);
  for (const Trace* t : seen) EXPECT_EQ(t, seen[0]);
  EXPECT_FALSE(seen[0]->empty());
}

TEST(TraceCache, DistinctKeysGetDistinctTraces) {
  exp::TraceCache cache;
  const Trace& a = cache.get({"zipf-small", 1.0, 1});
  const Trace& b = cache.get({"zipf-small", 1.0, 2});
  const Trace& c = cache.get({"cs", 1.0, 1});
  EXPECT_EQ(cache.synthesis_count(), 3u);
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  // Same key again: no new synthesis.
  cache.get({"cs", 1.0, 1});
  EXPECT_EQ(cache.synthesis_count(), 3u);
}

TEST(TraceCache, PutRegistersAdHocTraces) {
  exp::TraceCache cache;
  Trace t("adhoc");
  t.add(1);
  const Trace& stored = cache.put("my-key", std::move(t));
  EXPECT_EQ(stored.size(), 1u);
  EXPECT_EQ(&cache.put("my-key", Trace("ignored")), &stored);
  EXPECT_EQ(cache.synthesis_count(), 1u);
}

// ---- run_matrix ----

std::vector<exp::ExperimentSpec> small_matrix() {
  std::vector<exp::ExperimentSpec> specs;
  for (const char* preset : {"zipf-small", "random-small"}) {
    for (int kind = 0; kind < 3; ++kind) {
      exp::ExperimentSpec spec;
      const std::vector<std::size_t> caps{64, 128, 256};
      switch (kind) {
        case 0:
          spec.factory = [caps](const Trace&) { return make_ind_lru(caps); };
          break;
        case 1:
          spec.factory = [caps](const Trace&) { return make_uni_lru(caps); };
          break;
        default:
          spec.factory = [caps](const Trace&) { return make_ulc(caps); };
      }
      spec.trace = {preset, 1.0, 7};
      spec.model = CostModel::paper_three_level();
      spec.params["kind"] = kind;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// Serializes everything except the wall-clock fields.
std::string deterministic_dump(std::vector<exp::CellResult> cells) {
  for (exp::CellResult& cell : cells) {
    cell.wall_seconds = 0.0;
    cell.refs_per_sec = 0.0;
  }
  return exp::results_to_json(cells).dump(2);
}

TEST(RunMatrix, DeterministicAcrossThreadCounts) {
  const std::vector<exp::ExperimentSpec> specs = small_matrix();

  exp::MatrixOptions serial;
  serial.threads = 1;
  const std::vector<exp::CellResult> one = exp::run_matrix(specs, serial);

  exp::MatrixOptions parallel_opts;
  parallel_opts.threads = 8;
  const std::vector<exp::CellResult> eight = exp::run_matrix(specs, parallel_opts);

  ASSERT_EQ(one.size(), specs.size());
  EXPECT_EQ(deterministic_dump(one), deterministic_dump(eight));
  // Results come back in spec order.
  EXPECT_EQ(one[0].run.scheme, "indLRU");
  EXPECT_EQ(one[2].run.scheme, "ULC");
  EXPECT_EQ(one[0].run.trace, "zipf");
  EXPECT_EQ(one[3].run.trace, "random");
}

TEST(RunMatrix, SharedCacheSynthesizesEachTraceOnce) {
  exp::TraceCache cache;
  exp::MatrixOptions opts;
  opts.threads = 4;
  opts.cache = &cache;
  const auto cells = exp::run_matrix(small_matrix(), opts);
  EXPECT_EQ(cells.size(), 6u);
  EXPECT_EQ(cache.synthesis_count(), 2u);  // two presets, three schemes each
}

TEST(RunMatrix, TraceOverrideAndSchemeRename) {
  auto t = std::make_shared<const Trace>([] {
    Trace tr("override");
    for (int i = 0; i < 200; ++i) tr.add(static_cast<BlockId>(i % 50));
    return tr;
  }());
  exp::ExperimentSpec spec;
  spec.scheme = "renamed";
  spec.factory = [](const Trace&) { return make_uni_lru({16, 32}); };
  spec.trace_override = t;
  spec.model = CostModel::paper_two_level();
  const auto cells = exp::run_matrix({std::move(spec)});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].run.scheme, "renamed");
  EXPECT_EQ(cells[0].run.trace, "override");
  EXPECT_GT(cells[0].run.stats.references, 0u);
}

// ---- JSON schema golden file ----

TEST(CellJson, MatchesGoldenFile) {
  exp::CellResult cell;
  cell.run.scheme = "ULC";
  cell.run.trace = "golden";
  cell.run.stats.resize(3);
  cell.run.stats.level_hits = {50, 25, 5};
  cell.run.stats.misses = 20;
  cell.run.stats.references = 100;
  cell.run.stats.demotions = {10, 4, 0};
  cell.run.stats.reloads = {2, 1, 0};
  cell.run.stats.writebacks = 3;
  const CostModel model = CostModel::paper_three_level();
  cell.run.time = compute_access_time(cell.run.stats, model);
  cell.run.t_ave_ms = cell.run.time.total();
  cell.wall_seconds = 1.5;
  cell.refs_per_sec = 12345;
  cell.params["cap_blocks"] = 6400;
  // Observability fields: a deterministic response-time histogram, as the
  // engine produces when MatrixOptions.observe is on.
  cell.metrics = std::make_shared<obs::MetricsRegistry>();
  obs::LatencyHistogram& hist = cell.metrics->histogram("response_ms");
  for (double ms : {0.0, 0.2, 0.2, 1.0, 12.4}) hist.record(ms);

  const std::string actual = exp::cell_to_json(cell).dump(2) + "\n";

  std::ifstream golden(std::string(ULC_GOLDEN_DIR) + "/cell_result.golden.json");
  ASSERT_TRUE(golden.is_open()) << "missing golden file";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "JSON schema changed; update tests/golden/cell_result.golden.json\n"
      << "actual:\n"
      << actual;
}

}  // namespace
}  // namespace ulc
