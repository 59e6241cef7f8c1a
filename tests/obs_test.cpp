// Tests for the observability layer (src/obs): histogram bucket math and
// exact-rank percentiles, merge determinism across sharded (multi-thread)
// accumulation, the metrics registry, the scope timer, the trace recorder's
// Chrome trace_event export (golden file), and the engine-level guarantees —
// published counters match the run's HierarchyStats and the response-time
// histogram's mean reproduces the analytic T_ave components it measures.
#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "util/prng.h"
#include "trace/size_table.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

Trace small_trace(std::uint64_t blocks, std::uint64_t refs, std::uint64_t seed) {
  auto src = make_zipf_source(0, blocks, 0.9, true, seed);
  return generate(*src, refs, seed, "obs");
}

// ---- LatencyHistogram ----

TEST(LatencyHistogram, EmptyReportsNulls) {
  obs::LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.to_json().dump(),
            "{\"count\":0,\"mean\":null,\"min\":null,\"max\":null,"
            "\"p50\":null,\"p95\":null,\"p99\":null}");
}

TEST(LatencyHistogram, PercentileOfEmptyAborts) {
  obs::LatencyHistogram h;
  EXPECT_DEATH(h.percentile(50.0), "empty histogram");
}

TEST(LatencyHistogram, ExtremaAreExactAndPercentilesClamped) {
  obs::LatencyHistogram h;
  for (double ms : {0.0, 0.2, 0.2, 1.0, 12.4}) h.record(ms);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 12.4);
  // p0/p100 are clamped to the exact observed extrema.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 12.4);
  // Rank 3 of 5 is the 0.2 sample; the answer is that bucket's upper edge,
  // within one bucket width (1/32) of the true order statistic.
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 0.2);
  EXPECT_LE(p50, 0.2 * (1.0 + 1.0 / obs::LatencyHistogram::kSubBuckets));
}

TEST(LatencyHistogram, NonPositiveSamplesShareTheZeroBucket) {
  obs::LatencyHistogram h;
  h.record(0.0);
  h.record(-3.5);  // clock-skew style input must not crash or misbucket
  h.record(0.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.5);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // All three land in the zero bucket whose upper edge is 0, so mid-range
  // percentiles report 0; only p0 recovers the exact (negative) minimum.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), -3.5);
}

TEST(LatencyHistogram, BucketRelativeErrorBoundAcrossMagnitudes) {
  // One tiny and one huge sample so clamping cannot mask bucket error; the
  // p50 rank lands on v's bucket and must be within 1/kSubBuckets above v.
  for (double v = 1e-6; v < 1e7; v *= 3.7) {
    obs::LatencyHistogram h;
    h.record(v);
    h.record(1e9);
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, v) << v;
    EXPECT_LE(p50, v * (1.0 + 1.0 / obs::LatencyHistogram::kSubBuckets)) << v;
  }
}

TEST(LatencyHistogram, ShardedMergeIsDeterministicAcrossThreadCounts) {
  Rng rng(42);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i)
    samples.push_back(static_cast<double>(rng.next_below(1 << 20)) * 0.001);

  obs::LatencyHistogram sequential;
  for (double s : samples) sequential.record(s);

  // Shard deterministically, populate the shards concurrently (the engine's
  // worker pool), then merge in fixed shard order. The merge *shape* is
  // fixed, so the JSON must be byte-identical no matter how many threads
  // raced on the shards — that is the contract run_matrix relies on.
  std::string reference;
  for (std::size_t threads : {1, 3, 8}) {
    constexpr std::size_t kShards = 7;
    std::vector<obs::LatencyHistogram> shards(kShards);
    exp::parallel_for(kShards, threads, [&](std::size_t shard) {
      for (std::size_t i = shard; i < samples.size(); i += kShards)
        shards[shard].record(samples[i]);
    });
    obs::LatencyHistogram merged;
    for (const obs::LatencyHistogram& s : shards) merged.merge(s);
    if (reference.empty()) reference = merged.to_json().dump();
    EXPECT_EQ(merged.to_json().dump(), reference) << threads;

    // Against the sequential accumulation: the bucket contents are integers,
    // so count/extrema/percentiles agree exactly; only the Welford mean may
    // differ in the last bit because the merge tree reorders the additions.
    EXPECT_EQ(merged.count(), sequential.count());
    EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
    EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
    for (double p : {50.0, 95.0, 99.0})
      EXPECT_DOUBLE_EQ(merged.percentile(p), sequential.percentile(p)) << p;
    EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-9 * sequential.mean());
  }
}

TEST(LatencyHistogram, ClearResetsToEmpty) {
  obs::LatencyHistogram h;
  h.record(1.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.to_json().dump(), obs::LatencyHistogram().to_json().dump());
}

// ---- LatencyHistogram against the std::map layout it replaced ----

// The std::map histogram that the dense-array layout replaced, kept as the
// oracle. One deliberate deviation: the original truncated
// (inf - 0.5) * 64 to int for +inf, which is undefined behaviour; here +inf
// gets the bucket one past DBL_MAX's, as LatencyHistogram gives it.
class MapHistogram {
 public:
  void record(double ms) {
    ++buckets_[bucket_of(ms)];
    moments_.add(ms);
  }
  void merge(const MapHistogram& other) {
    for (const auto& [index, n] : other.buckets_) buckets_[index] += n;
    moments_.merge(other.moments_);
  }
  const OnlineStats& moments() const { return moments_; }

  double percentile(double p) const {
    if (p == 0.0) return moments_.min();  // ulc-lint: allow(float-eq)
    const std::uint64_t n = moments_.count();
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t seen = 0;
    for (const auto& [index, cnt] : buckets_) {
      seen += cnt;
      if (seen >= rank) {
        const double v = bucket_upper(index);
        return std::min(std::max(v, moments_.min()), moments_.max());
      }
    }
    return moments_.max();
  }

  Json to_json() const {
    Json j = Json::object();
    j.set("count", moments_.count());
    if (moments_.empty()) {
      for (const char* k : {"mean", "min", "max", "p50", "p95", "p99"}) j.set(k, nullptr);
      return j;
    }
    j.set("mean", moments_.mean());
    j.set("min", moments_.min());
    j.set("max", moments_.max());
    j.set("p50", percentile(50.0));
    j.set("p95", percentile(95.0));
    j.set("p99", percentile(99.0));
    return j;
  }

 private:
  static constexpr int kSub = obs::LatencyHistogram::kSubBuckets;
  static constexpr int kZeroBucket = std::numeric_limits<int>::min();

  static int bucket_of(double ms) {
    if (!(ms > 0.0)) return kZeroBucket;
    if (std::isinf(ms)) return 1025 * kSub;
    int exp2 = 0;
    const double frac = std::frexp(ms, &exp2);
    int sub = static_cast<int>((frac - 0.5) * (2.0 * kSub));
    if (sub >= kSub) sub = kSub - 1;
    if (sub < 0) sub = 0;
    return exp2 * kSub + sub;
  }

  static double bucket_upper(int index) {
    if (index == kZeroBucket) return 0.0;
    int exp2 = index / kSub;
    int sub = index % kSub;
    if (sub < 0) {
      sub += kSub;
      --exp2;
    }
    const double frac =
        0.5 + 0.5 * static_cast<double>(sub + 1) / static_cast<double>(kSub);
    return std::ldexp(frac, exp2);
  }

  std::map<int, std::uint64_t> buckets_;
  OnlineStats moments_;
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// Count, min, max and mean bit for bit, every integer percentile, and the
// JSON text.
void expect_same(const obs::LatencyHistogram& h, const MapHistogram& ref,
                 const std::string& what) {
  ASSERT_EQ(h.count(), ref.moments().count()) << what;
  EXPECT_EQ(h.to_json().dump(), ref.to_json().dump()) << what;
  if (h.empty()) return;
  EXPECT_EQ(bits_of(h.min()), bits_of(ref.moments().min())) << what;
  EXPECT_EQ(bits_of(h.max()), bits_of(ref.moments().max())) << what;
  EXPECT_EQ(bits_of(h.mean()), bits_of(ref.moments().mean())) << what;
  for (int p = 0; p <= 100; ++p)
    EXPECT_EQ(bits_of(h.percentile(p)), bits_of(ref.percentile(p)))
        << what << " p" << p;
}

// Records `samples` into both layouts in three orders (as given, ascending,
// descending), and also as three interleaved shards merged in two different
// orders.
void expect_same_for(std::vector<double> samples, const std::string& what) {
  const auto by_value = [](double a, double b) {
    // NaN sorts last so std::sort sees a strict weak order.
    if (std::isnan(a) || std::isnan(b)) return !std::isnan(a) && std::isnan(b);
    return a < b;
  };
  const bool extrema_order_free =
      std::none_of(samples.begin(), samples.end(),
                   [](double v) { return std::isnan(v) || bits_of(v) == bits_of(-0.0); });
  for (int order = 0; order < 3; ++order) {
    if (order == 1) std::stable_sort(samples.begin(), samples.end(), by_value);
    if (order == 2) std::reverse(samples.begin(), samples.end());
    const std::string tag = what + " order " + std::to_string(order);
    obs::LatencyHistogram h;
    MapHistogram ref;
    for (double s : samples) {
      h.record(s);
      ref.record(s);
    }
    expect_same(h, ref, tag);
    EXPECT_EQ(bits_of(h.moments().mean()), bits_of(h.mean())) << tag;

    constexpr std::size_t kShards = 3;
    std::vector<obs::LatencyHistogram> hs(kShards);
    std::vector<MapHistogram> refs(kShards);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      hs[i % kShards].record(samples[i]);
      refs[i % kShards].record(samples[i]);
    }
    std::string forward_json;
    for (const bool forward : {true, false}) {
      obs::LatencyHistogram merged;
      MapHistogram merged_ref;
      for (std::size_t k = 0; k < kShards; ++k) {
        const std::size_t at = forward ? k : kShards - 1 - k;
        merged.merge(hs[at]);
        merged_ref.merge(refs[at]);
      }
      expect_same(merged, merged_ref, tag + (forward ? " merged fwd" : " merged rev"));
      // Across merge orders only the Welford mean may move; the buckets are
      // integers. The extrema are order-free too, unless a NaN or a -0.0 is
      // among the samples: std::min/std::max then keep whichever came first,
      // and every percentile is clamped to them.
      EXPECT_EQ(merged.count(), h.count()) << tag;
      if (!h.empty() && extrema_order_free) {
        for (int p = 0; p <= 100; ++p)
          EXPECT_EQ(bits_of(merged.percentile(p)), bits_of(h.percentile(p)))
              << tag << " p" << p;
      }
    }
  }
}

// 0, negatives, NaN, the infinities, subnormals, DBL_MIN and DBL_MAX.
std::vector<double> special_values() {
  const double inf = std::numeric_limits<double>::infinity();
  return {0.0,
          -0.0,
          -1.0,
          -3.5,
          -DBL_MAX,
          -inf,
          std::numeric_limits<double>::quiet_NaN(),
          inf,
          std::numeric_limits<double>::denorm_min(),
          DBL_MIN / 2.0,
          std::nextafter(DBL_MIN, 0.0),
          DBL_MIN,
          DBL_MAX,
          std::nextafter(DBL_MAX, 0.0)};
}

// Powers of two across the whole range, subnormal ones included.
std::vector<double> powers_of_two(int step) {
  std::vector<double> v;
  for (int e = -1074; e <= 1023; e += step) v.push_back(std::ldexp(1.0, e));
  return v;
}

// Exact bucket edges and their neighbours, in normal and subnormal octaves.
std::vector<double> bucket_edges() {
  constexpr int kSub = obs::LatencyHistogram::kSubBuckets;
  std::vector<double> v;
  for (int e = -1073; e <= 1024; e += 31) {
    for (int k = 0; k < kSub; ++k) {
      const double edge = std::ldexp(0.5 + 0.5 * k / static_cast<double>(kSub), e);
      if (!std::isnormal(edge) && !(edge > 0.0)) continue;
      if (std::isinf(edge)) continue;
      v.push_back(edge);
      v.push_back(std::nextafter(edge, 0.0));
      v.push_back(std::nextafter(edge, std::numeric_limits<double>::infinity()));
    }
  }
  return v;
}

TEST(LatencyHistogramOracle, EmptyMatchesMapLayout) {
  expect_same(obs::LatencyHistogram(), MapHistogram(), "empty");
}

TEST(LatencyHistogramOracle, EachSpecialValueAloneAndAmongOrdinarySamples) {
  std::vector<double> values = special_values();
  for (double p : powers_of_two(97)) values.push_back(p);
  for (double special : values) {
    const std::string tag = std::to_string(bits_of(special));
    expect_same_for({0.0, 0.2, 1.0, special, 1.2, 11.2, 0.2, special}, "among " + tag);
    expect_same_for({special}, "alone " + tag);
  }
}

TEST(LatencyHistogramOracle, AllSpecialValuesEdgesAndPowersTogether) {
  std::vector<double> all = special_values();
  for (double p : powers_of_two(13)) all.push_back(p);
  for (double e : bucket_edges()) all.push_back(e);
  // Without the NaN and the infinities the moments stay finite too.
  std::vector<double> finite;
  for (double s : all)
    if (std::isfinite(s)) finite.push_back(s);
  expect_same_for(all, "all");
  expect_same_for(finite, "finite");
}

TEST(LatencyHistogramOracle, MillionLogUniformSamples) {
  Rng rng(2004);
  std::vector<double> samples(1000000);
  // 1e-6 .. 1e6 ms: 40 octaves, about 1300 buckets.
  for (double& s : samples) s = std::pow(10.0, rng.next_double() * 12.0 - 6.0);
  expect_same_for(samples, "log-uniform");
}

// ---- MetricsRegistry ----

TEST(MetricsRegistry, CountersGaugesHistogramsAndMerge) {
  obs::MetricsRegistry a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.counter("absent"), 0u);
  a.add_counter("hits.L0", 5);
  a.add_counter("hits.L0", 2);
  a.set_gauge("warmup", 0.1);
  a.histogram("response_ms").record(1.0);
  EXPECT_EQ(a.counter("hits.L0"), 7u);
  EXPECT_NE(a.find_histogram("response_ms"), nullptr);
  EXPECT_EQ(a.find_histogram("absent"), nullptr);

  obs::MetricsRegistry b;
  b.add_counter("hits.L0", 3);
  b.add_counter("misses", 1);
  b.set_gauge("warmup", 0.2);
  b.histogram("response_ms").record(2.0);

  a.merge(b);
  EXPECT_EQ(a.counter("hits.L0"), 10u);  // counters add
  EXPECT_EQ(a.counter("misses"), 1u);
  EXPECT_EQ(a.find_histogram("response_ms")->count(), 2u);  // histograms merge
  // Gauges take the merged-in value; keys serialize in lexicographic order.
  EXPECT_EQ(a.to_json().dump(),
            "{\"counters\":{\"hits.L0\":10,\"misses\":1},"
            "\"gauges\":{\"warmup\":0.2},"
            "\"histograms\":{\"response_ms\":" +
                a.find_histogram("response_ms")->to_json().dump() + "}}");
}

TEST(ScopeTimer, RecordsSimClockDeltaAndToleratesNulls) {
  obs::LatencyHistogram h;
  double clock = 10.0;
  {
    obs::ScopeTimer t(&h, &clock);
    clock = 13.5;
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.5);
  {
    obs::ScopeTimer t(nullptr, &clock);  // no-op forms must not crash
    obs::ScopeTimer t2(&h, nullptr);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsGate, PassesPointersThroughWhenEnabled) {
  int x = 0;
  if (obs::enabled()) {
    EXPECT_EQ(obs::gate(&x), &x);
  } else {
    EXPECT_EQ(obs::gate(&x), nullptr);
  }
}

TEST(StatsToJson, EmptyEmitsNullsNotZeros) {
  OnlineStats s;
  EXPECT_EQ(obs::stats_to_json(s).dump(),
            "{\"count\":0,\"mean\":null,\"stddev\":null,"
            "\"min\":null,\"max\":null}");
  s.add(2.0);
  EXPECT_EQ(obs::stats_to_json(s).dump(),
            "{\"count\":1,\"mean\":2,\"stddev\":0,\"min\":2,\"max\":2}");
}

// ---- TraceRecorder ----

TEST(TraceRecorder, CapacityDropsAreCountedNotRecorded) {
  obs::TraceRecorder rec(2);
  rec.span("a", "access", 0.0, 1.0, obs::TraceRecorder::kClientTrack, 0);
  rec.instant("b", "fault", 1.0, obs::TraceRecorder::level_track(0), 0);
  rec.span("c", "access", 2.0, 1.0, obs::TraceRecorder::kClientTrack, 1);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  const std::string doc = rec.to_chrome_json().dump();
  EXPECT_NE(doc.find("\"dropped_events\":1"), std::string::npos) << doc;
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

// The export schema is pinned by a golden file: chrome://tracing and Perfetto
// parse these documents, so field names, ph/ts/dur conventions and metadata
// ordering must not drift silently.
TEST(TraceRecorder, ChromeExportMatchesGoldenFile) {
  obs::TraceRecorder rec;
  rec.name_track(obs::TraceRecorder::kClientTrack, "client");
  rec.name_track(obs::TraceRecorder::level_track(1), "level L1");
  rec.span("hit L1", "access", 0.25, 1.5, obs::TraceRecorder::kClientTrack, 0,
           42);
  rec.span("demote L0->L1", "demote", 1.75, 0.5,
           obs::TraceRecorder::level_track(0), 0, 7);
  rec.instant("breaker trip L1", "phase", 2.5, obs::TraceRecorder::level_track(1),
              1);
  rec.span("miss", "access", 3.0, 12.0, obs::TraceRecorder::kClientTrack, 1);

  const std::string actual = rec.to_chrome_json().dump(2) + "\n";
  std::ifstream golden(std::string(ULC_GOLDEN_DIR) + "/trace_events.golden.json");
  ASSERT_TRUE(golden.is_open()) << "missing golden file";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "Chrome trace schema changed; update "
         "tests/golden/trace_events.golden.json\nactual:\n"
      << actual;
}

// ---- run_scheme integration ----

TEST(RunSchemeObs, CountersMatchStatsAndHistogramMeanMatchesTave) {
  const Trace t = small_trace(512, 20000, 5);
  const CostModel model = CostModel::paper_three_level();
  auto scheme = make_ulc({64, 128, 256});
  obs::MetricsRegistry metrics;
  RunObservation observe;
  observe.metrics = &metrics;
  const RunResult r = run_scheme(*scheme, t, model, 0.1, observe);

  // Published counters are the run's HierarchyStats verbatim.
  for (std::size_t l = 0; l < r.stats.level_hits.size(); ++l)
    EXPECT_EQ(metrics.counter("hits.L" + std::to_string(l)),
              r.stats.level_hits[l]);
  EXPECT_EQ(metrics.counter("misses"), r.stats.misses);
  EXPECT_EQ(metrics.counter("references"), r.stats.references);
  for (std::size_t b = 0; b < r.stats.demotions.size(); ++b)
    EXPECT_EQ(metrics.counter("demote.L" + std::to_string(b)),
              r.stats.demotions[b]);

  // The response histogram samples exactly the per-reference terms of the
  // analytic model (hit + miss + demotion; reloads/writebacks are off the
  // read path), so its mean reproduces those T_ave components.
  const obs::LatencyHistogram* hist = metrics.find_histogram("response_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), r.stats.references);
  const double expected =
      r.time.hit_component + r.time.miss_component + r.time.demotion_component;
  EXPECT_NEAR(hist->mean(), expected, 1e-9);
}

// With a size-proportional cost model each sample carries the per-unit
// terms of its hit/miss and of the demotions it triggered, so the histogram
// mean still equals t_ave_ms for every paper scheme on mixed-size blocks.
TEST(RunSchemeObs, SizedCostModelHistogramMeanMatchesTave) {
  Trace single = small_trace(600, 20000, 13);
  stamp_sizes(single, assign_bimodal_sizes(0, 600, 1, 6, 0.25, 7));
  std::vector<PatternPtr> clients;
  for (std::uint64_t c = 0; c < 3; ++c)
    clients.push_back(make_zipf_source(c * 200, 300, 0.9, true, 21 + c));
  Trace multi = generate_multi(std::move(clients), {1.0, 1.0, 1.0}, 20000, 5, "multi");
  stamp_sizes(multi, assign_heavy_tail_sizes(0, 900, 1.2, 16, 3));

  const CostModel three = CostModel::sized(CostModel::paper_three_level(), 0.25);
  const CostModel two = CostModel::sized(CostModel::paper_two_level(), 0.25);
  struct Cell {
    const char* name;
    SchemePtr scheme;
    const Trace* trace;
    const CostModel* model;
  };
  Cell cells[] = {
      {"ULC", make_ulc({64, 128, 256}), &single, &three},
      {"uniLRU", make_uni_lru({64, 128, 256}), &single, &three},
      {"indLRU", make_ind_lru({64, 128, 256}), &single, &three},
      {"LRU+MQ", make_mq_hierarchy(64, 384, 1), &single, &two},
      {"ULC-multi", make_ulc_multi(64, 256, 3), &multi, &two},
  };
  for (Cell& c : cells) {
    obs::MetricsRegistry metrics;
    RunObservation observe;
    observe.metrics = &metrics;
    const RunResult r = run_scheme(*c.scheme, *c.trace, *c.model, 0.1, observe);
    ASSERT_TRUE(r.stats.sized) << c.name;
    const obs::LatencyHistogram* hist = metrics.find_histogram("response_ms");
    ASSERT_NE(hist, nullptr) << c.name;
    EXPECT_GT(r.t_ave_ms, 0.0) << c.name;
    EXPECT_LE(std::abs(hist->mean() - r.t_ave_ms), 1e-9 * r.t_ave_ms)
        << c.name << ": mean " << hist->mean() << " vs t_ave_ms " << r.t_ave_ms;
  }
}

TEST(RunSchemeObs, InstrumentedRunMatchesBareRun) {
  const Trace t = small_trace(256, 8000, 9);
  const CostModel model = CostModel::paper_two_level();
  auto bare = make_uni_lru({32, 64});
  const RunResult plain = run_scheme(*bare, t, model, 0.1);

  auto observed = make_uni_lru({32, 64});
  obs::MetricsRegistry metrics;
  obs::TraceRecorder rec(1000);
  RunObservation observe;
  observe.metrics = &metrics;
  observe.events = &rec;
  const RunResult instrumented = run_scheme(*observed, t, model, 0.1, observe);

  // Observation is purely additive: identical stats and identical T_ave.
  EXPECT_EQ(plain.stats.level_hits, instrumented.stats.level_hits);
  EXPECT_EQ(plain.stats.misses, instrumented.stats.misses);
  EXPECT_EQ(plain.stats.demotions, instrumented.stats.demotions);
  EXPECT_DOUBLE_EQ(plain.t_ave_ms, instrumented.t_ave_ms);
  EXPECT_FALSE(rec.empty());
}

// Engine-level determinism of the new fields: per-cell registries merged in
// spec order make the counters and percentiles byte-identical no matter how
// many worker threads raced on the cells.
TEST(RunMatrixObs, MetricsIdenticalAcrossThreadCounts) {
  auto t = std::make_shared<const Trace>(small_trace(256, 10000, 3));
  auto make_specs = [&] {
    std::vector<exp::ExperimentSpec> specs;
    for (std::size_t cap : {16, 32, 64, 128}) {
      exp::ExperimentSpec spec;
      spec.factory = [cap](const Trace&) { return make_ulc({cap, 2 * cap}); };
      spec.trace_override = t;
      spec.model = CostModel::paper_two_level();
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  exp::MatrixOptions one;
  one.threads = 1;
  const auto base = exp::run_matrix(make_specs(), one);

  exp::MatrixOptions eight;
  eight.threads = 8;
  const auto parallel = exp::run_matrix(make_specs(), eight);

  ASSERT_EQ(base.size(), parallel.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(base[i].metrics && parallel[i].metrics);
    EXPECT_EQ(base[i].metrics->to_json().dump(),
              parallel[i].metrics->to_json().dump())
        << "cell " << i;
  }
}

}  // namespace
}  // namespace ulc
