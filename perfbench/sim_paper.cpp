// sim_paper: the paper's evaluation path, on one thread.
//
// Each repetition runs the Figure 6 cells on the zipf preset (ULC, uniLRU,
// indLRU over 3 x 12,800 blocks, plus LRU+MQ over the same 38,400 blocks),
// Figure 7's ULC cell on httpd-multi, and the message-level protocol
// simulation of ULC on the same zipf trace. Every cell goes through
// exp::run_matrix with observe=true, the default of every figure harness.
// The traces are synthesized during set-up and handed to the engine as
// trace overrides, so the engine receives only the generated inputs.
//
// Timing. A call takes 0.1-0.2 s, and on a shared host the speed of a core
// changes from one millisecond to the next, so a call timed whole carries
// whatever the core did during it. Each call is therefore cut into segments
// of kSegmentRefs references, about half a millisecond, by a thin wrapper
// around the cell's scheme that reads the clocks at every segment boundary.
// The replay is deterministic, so segment k of one repetition does exactly
// the work of segment k of any other; a call is timed by the sum over its
// segments of each segment's fastest repetition. The wrapper forwards
// access/prefetch/stats through one more virtual call each, a fixed cost of
// a few percent of a reference. (run_scheme with observe on replays one
// access() at a time, so the wrapper needs no access_batch of its own.)
#include <algorithm>

#include "exp/experiment.h"
#include "proto/protocol_sim.h"
#include "util/flat_hash.h"
#include "workloads.h"
#include "workloads/paper_presets.h"

namespace perfbench {

namespace {

// zipf at 1% of the paper's 98M references (980k, the preset's floor):
// every footprint/cache ratio of Figure 6 is kept, and a repetition is short
// enough for a run to hold several, so each call's fastest one is found.
constexpr double kZipfScale = 0.01;
constexpr double kHttpdScale = 0.01;
constexpr std::size_t kCap = 12800;  // Figure 6: 100 MB per level
constexpr std::size_t kSegmentRefs = 4096;

// Segment boundaries of the call in progress: wall and process CPU clocks,
// read by SegmentedScheme every kSegmentRefs references while armed.
struct SegmentClock {
  bool armed = false;
  std::vector<std::uint64_t> wall_ns;
  std::vector<std::uint64_t> cpu_ns;

  void arm(std::size_t refs) {
    wall_ns.clear();
    cpu_ns.clear();
    wall_ns.reserve(refs / kSegmentRefs + 2);
    cpu_ns.reserve(refs / kSegmentRefs + 2);
    armed = true;
  }
  void mark() {
    wall_ns.push_back(now_ns());
    cpu_ns.push_back(process_cpu_ns());
  }
};

// Forwards every call the runner makes to the cell's own scheme, and marks
// the clock after every kSegmentRefs references.
class SegmentedScheme final : public ulc::MultiLevelScheme {
 public:
  SegmentedScheme(ulc::SchemePtr inner, SegmentClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void access(const ulc::Request& request) override {
    inner_->access(request);
    if (++count_ == kSegmentRefs) {
      count_ = 0;
      if (clock_->armed) clock_->mark();
    }
  }
  void prefetch(const ulc::Request& request) const override { inner_->prefetch(request); }
  const ulc::HierarchyStats& stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }
  const char* name() const override { return inner_->name(); }

 private:
  ulc::SchemePtr inner_;
  SegmentClock* clock_;
  std::size_t count_ = 0;
};

struct SimInputs {
  std::shared_ptr<const ulc::Trace> zipf;
  std::shared_ptr<const ulc::Trace> httpd;
  std::vector<ulc::exp::ExperimentSpec> cells;
  std::unique_ptr<SegmentClock> clock = std::make_unique<SegmentClock>();
  double synth_s = 0.0;
  double setup_s = 0.0;
};

SimInputs set_up(std::uint64_t seed) {
  const std::uint64_t t0 = now_ns();
  SimInputs in;
  in.zipf = std::make_shared<const ulc::Trace>(ulc::make_preset("zipf", kZipfScale, seed));
  in.httpd =
      std::make_shared<const ulc::Trace>(ulc::make_preset("httpd-multi", kHttpdScale, seed));
  in.synth_s = seconds_since(t0);

  const std::vector<std::size_t> caps(3, kCap);
  const auto cell = [&in](const char* scheme, ulc::exp::SchemeFactory make,
                          std::shared_ptr<const ulc::Trace> trace, ulc::CostModel model) {
    ulc::exp::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.factory = [make = std::move(make), clock = in.clock.get()](const ulc::Trace& t) {
      return ulc::SchemePtr(std::make_unique<SegmentedScheme>(make(t), clock));
    };
    spec.trace_override = std::move(trace);
    spec.model = model;
    in.cells.push_back(std::move(spec));
  };
  const ulc::CostModel three = ulc::CostModel::paper_three_level();
  cell("ULC", [caps](const ulc::Trace&) { return ulc::make_ulc(caps); }, in.zipf, three);
  cell("uniLRU", [caps](const ulc::Trace&) { return ulc::make_uni_lru(caps); }, in.zipf, three);
  cell("indLRU", [caps](const ulc::Trace&) { return ulc::make_ind_lru(caps); }, in.zipf, three);
  cell("LRU+MQ",
       [](const ulc::Trace&) { return ulc::make_mq_hierarchy(kCap, 2 * kCap, 1); },
       in.zipf, ulc::CostModel::paper_two_level());
  // Figure 7, httpd: 7 clients x 1024 blocks over an 8192-block server.
  cell("ULC-multi",
       [](const ulc::Trace&) { return ulc::make_ulc_multi(1024, 8192, 7); }, in.httpd,
       ulc::CostModel::paper_two_level());
  in.setup_s = seconds_since(t0);
  return in;
}

// Everything a repetition produces that must repeat bit for bit.
std::string counters_line(const ulc::RunResult& r) {
  std::string levels;
  for (std::uint64_t h : r.stats.level_hits) levels += strprintf("%llu,", static_cast<unsigned long long>(h));
  std::string demotions;
  for (std::uint64_t d : r.stats.demotions) demotions += strprintf("%llu,", static_cast<unsigned long long>(d));
  return strprintf("cell %-9s %-11s refs %llu hits [%s] misses %llu demotions [%s] t_ave_ms %.9f",
                   r.scheme.c_str(), r.trace.c_str(),
                   static_cast<unsigned long long>(r.stats.references), levels.c_str(),
                   static_cast<unsigned long long>(r.stats.misses), demotions.c_str(), r.t_ave_ms);
}

// Per simulator call, per segment: a duration in ns.
using Segments = std::vector<std::vector<std::uint64_t>>;

struct Repetition {
  double seconds = 0.0;
  std::uint64_t refs = 0;             // references replayed (warm-up included)
  std::uint64_t measured = 0;         // post-warm-up references over the matrix cells
  std::uint64_t misses = 0;
  // Per simulator call: its references, and the wall and process CPU time
  // of each of its segments.
  std::vector<std::uint64_t> call_refs;
  Segments seg_wall_ns;
  Segments seg_cpu_ns;
  std::vector<std::string> counters;  // per cell, for the bit-for-bit check
  std::vector<ulc::RunResult> runs;
  double calls_ns = 0.0;              // time inside program calls
};

// Appends one call's segment durations, from the clocks read before the call,
// at each boundary inside it, and after it.
void add_segments(Repetition& rep, std::uint64_t refs, std::uint64_t t0, std::uint64_t c0,
                  const SegmentClock* clock, std::uint64_t t1, std::uint64_t c1) {
  rep.call_refs.push_back(refs);
  std::vector<std::uint64_t> wall{t0}, cpu{c0};
  if (clock != nullptr) {
    wall.insert(wall.end(), clock->wall_ns.begin(), clock->wall_ns.end());
    cpu.insert(cpu.end(), clock->cpu_ns.begin(), clock->cpu_ns.end());
  }
  wall.push_back(t1);
  cpu.push_back(c1);
  std::vector<std::uint64_t> dw, dc;
  for (std::size_t i = 1; i < wall.size(); ++i) {
    dw.push_back(wall[i] - wall[i - 1]);
    dc.push_back(cpu[i] - cpu[i - 1]);
  }
  rep.seg_wall_ns.push_back(std::move(dw));
  rep.seg_cpu_ns.push_back(std::move(dc));
  rep.calls_ns += static_cast<double>(t1 - t0);
}

Repetition run_once(const SimInputs& in, SpanRecorder* spans, SpanNames* names,
                    std::uint64_t rep_index) {
  Repetition rep;
  ulc::exp::MatrixOptions options;
  options.threads = 1;
  options.observe = true;
  SegmentClock& clock = *in.clock;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    const ulc::exp::ExperimentSpec& spec = in.cells[i];
    clock.arm(spec.trace_override->size());
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    const std::vector<ulc::exp::CellResult> out = ulc::exp::run_matrix({spec}, options);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t c1 = process_cpu_ns();
    clock.armed = false;
    add_segments(rep, spec.trace_override->size(), t0, c0, &clock, t1, c1);
    if (spans != nullptr)
      spans->add(names->intern("sim.run_matrix." + spec.scheme), rep_index, t0, t1);
    rep.refs += spec.trace_override->size();
    rep.measured += out[0].run.stats.references;
    rep.misses += out[0].run.stats.misses;
    rep.runs.push_back(out[0].run);
    rep.counters.push_back(counters_line(out[0].run));
  }
  {
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    const ulc::ProtocolResult p = ulc::run_protocol_sim(
        ulc::ProtocolScheme::kUlc,
        ulc::ProtocolConfig::paper_three_level(std::vector<std::size_t>(3, kCap)), *in.zipf);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t c1 = process_cpu_ns();
    add_segments(rep, in.zipf->size(), t0, c0, nullptr, t1, c1);
    if (spans != nullptr)
      spans->add(names->intern("sim.run_protocol_sim"), rep_index, t0, t1);
    rep.refs += in.zipf->size();
    rep.counters.push_back(strprintf("proto ULC zipf refs %llu misses %llu mean_ms %.9f",
                                     static_cast<unsigned long long>(p.stats.references),
                                     static_cast<unsigned long long>(p.stats.misses),
                                     p.response_ms.mean()));
  }
  rep.seconds = seconds_since(start);
  return rep;
}

// Per call, per segment: the smallest duration over the repetitions. Empty
// when the repetitions cut a call into different numbers of segments, which
// a deterministic replay never does.
Segments segment_minima(const std::vector<Repetition>& reps, Segments Repetition::*field) {
  Segments best = reps.front().*field;
  for (const Repetition& r : reps) {
    const Segments& segs = r.*field;
    if (segs.size() != best.size()) return {};
    for (std::size_t c = 0; c < best.size(); ++c) {
      if (segs[c].size() != best[c].size()) return {};
      for (std::size_t k = 0; k < best[c].size(); ++k)
        best[c][k] = std::min(best[c][k], segs[c][k]);
    }
  }
  return best;
}

// Per call, in us: the sum of its segments.
std::vector<double> call_totals_us(const Segments& segs) {
  std::vector<double> calls;
  for (const std::vector<std::uint64_t>& call : segs) {
    std::uint64_t ns = 0;
    for (std::uint64_t d : call) ns += d;
    calls.push_back(static_cast<double>(ns) * 1e-3);
  }
  return calls;
}

// Percentile p of the time per reference, in us, over every reference of a
// repetition: the references of one segment each cost its duration divided
// by their number. A call's last segment holds the remaining references (its
// time is folded into the one before when there are none); the protocol run
// is one segment.
double reference_percentile_us(const Segments& best, const std::vector<std::uint64_t>& call_refs,
                               double p) {
  std::vector<std::pair<double, std::uint64_t>> per_ref;  // (ns per reference, references)
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < best.size(); ++c) {
    const std::vector<std::uint64_t>& segs = best[c];
    const std::uint64_t full = segs.size() - 1;  // segments of exactly kSegmentRefs
    std::uint64_t last_refs = call_refs[c] - full * kSegmentRefs;
    std::uint64_t last_ns = segs.back();
    std::size_t n = segs.size();
    if (last_refs == 0 && n > 1) {
      --n;
      last_refs = kSegmentRefs;
      last_ns += segs[n - 1];
    }
    for (std::size_t k = 0; k < n; ++k) {
      const bool last = k + 1 == n;
      const std::uint64_t refs = last ? last_refs : kSegmentRefs;
      const std::uint64_t ns = last ? last_ns : segs[k];
      per_ref.emplace_back(static_cast<double>(ns) / static_cast<double>(refs), refs);
      total += refs;
    }
  }
  std::sort(per_ref.begin(), per_ref.end());
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (const auto& [ns, refs] : per_ref) {
    seen += refs;
    if (static_cast<double>(seen) >= rank) return ns * 1e-3;
  }
  return per_ref.empty() ? 0.0 : per_ref.back().first * 1e-3;
}

// Per call, in us: its fastest repetition timed whole (for the report).
std::vector<double> fastest_whole_call(const std::vector<Repetition>& reps) {
  std::vector<double> best(reps.front().seg_wall_ns.size(), 0.0);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t c = 0; c < best.size(); ++c) {
      std::uint64_t ns = 0;
      for (std::uint64_t d : reps[i].seg_wall_ns[c]) ns += d;
      const double us = static_cast<double>(ns) * 1e-3;
      best[c] = i == 0 ? us : std::min(best[c], us);
    }
  }
  return best;
}

void check_repetition(const Repetition& rep, const Repetition* first, WorkloadResult& res) {
  const ulc::RunResult* ulc_zipf = nullptr;
  const ulc::RunResult* ind_zipf = nullptr;
  for (const ulc::RunResult& r : rep.runs) {
    std::uint64_t hits = 0;
    for (std::uint64_t h : r.stats.level_hits) hits += h;
    res.attempted += 1;
    if (hits + r.stats.misses != r.stats.references)
      res.fail("cell " + r.scheme + ": hits + misses != references");
    if (r.scheme == "ULC") ulc_zipf = &r;
    if (r.scheme == "indLRU") ind_zipf = &r;
  }
  // The segment clock saw every reference of every cell.
  for (std::size_t c = 0; c < rep.runs.size(); ++c) {
    res.attempted += 1;
    if (rep.seg_wall_ns[c].size() != rep.call_refs[c] / kSegmentRefs + 1)
      res.fail("cell " + rep.runs[c].scheme + ": segment count does not match its references");
  }
  res.attempted += 1;
  if (ulc_zipf == nullptr || ind_zipf == nullptr || !(ulc_zipf->t_ave_ms < ind_zipf->t_ave_ms))
    res.fail("ULC t_ave_ms on zipf is not below indLRU's");
  if (first != nullptr) {
    res.attempted += 1;
    if (rep.counters != first->counters) res.fail("repetition counters differ from the first");
  }
}

}  // namespace

WorkloadResult run_sim_paper(const RunOptions& opt) {
  WorkloadResult res;
  res.workload = "sim_paper";

  std::vector<double> setup_samples, synth_samples;
  SimInputs in;
  double setup_total_s = 0.0;
  while (another_setup(setup_samples.size(), setup_total_s)) {
    in = SimInputs{};  // drop the previous traces before synthesizing again
    in = set_up(opt.seed);
    setup_samples.push_back(in.setup_s);
    synth_samples.push_back(in.synth_s);
    setup_total_s += in.setup_s;
  }

  // Timed region: whole repetitions until the region's time has passed. A
  // traced run splits --seconds between an untraced and a traced region.
  const double region_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto timed = [&](SpanRecorder* spans, SpanNames* names,
                         std::vector<Repetition>& reps, double& wall_s, double& steal) {
    const CpuTicks ticks0 = cpu_ticks();
    const std::uint64_t start = now_ns();
    do {
      reps.push_back(run_once(in, spans, names, reps.size()));
      check_repetition(reps.back(), reps.size() > 1 ? &reps.front() : nullptr, res);
    } while (seconds_since(start) < region_s);
    wall_s = seconds_since(start);
    steal = steal_share(ticks0, cpu_ticks());
  };
  std::vector<Repetition> reps;
  double wall_s = 0.0, steal = 0.0;
  timed(nullptr, nullptr, reps, wall_s, steal);

  std::uint64_t refs = 0;
  for (const Repetition& r : reps) refs += r.refs;
  // Each call type (a cell, or the protocol run) is timed by the minima of
  // its segments over the repetitions (see the top of this file). The
  // replays are deterministic, so only the host's interference differs
  // between repetitions, and it only ever adds time.
  const Segments best_wall = segment_minima(reps, &Repetition::seg_wall_ns);
  const Segments best_cpu = segment_minima(reps, &Repetition::seg_cpu_ns);
  if (best_wall.empty() || best_cpu.empty()) {
    res.fail("repetitions cut the simulator calls into different segments");
    return res;
  }
  const std::vector<double> calls = call_totals_us(best_wall);
  const std::vector<double> calls_cpu = call_totals_us(best_cpu);
  double best_us = 0.0, best_cpu_us = 0.0, whole_us = 0.0;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    best_us += calls[c];
    best_cpu_us += calls_cpu[c];
  }
  for (double us : fastest_whole_call(reps)) whole_us += us;
  std::size_t segments = 0;
  for (const std::vector<std::uint64_t>& call : reps.front().seg_wall_ns) segments += call.size();
  const double rep_refs = static_cast<double>(reps.front().refs);
  for (const std::string& line : reps.front().counters) res.note(line);
  std::string per_call;
  for (double us : calls) per_call += strprintf(" %.1f", us * 1e-3);
  res.note(strprintf("timed: %.2f s (host steal %.1f%%), %zu repetitions of %zu simulator "
                     "calls in %zu segments, %llu references; segment minima sum to %.3f s "
                     "(%.3f s CPU), per call [ms]:%s; the fastest whole calls sum to %.3f s",
                     wall_s, 100.0 * steal, reps.size(), calls.size(), segments,
                     static_cast<unsigned long long>(refs), best_us * 1e-6, best_cpu_us * 1e-6,
                     per_call.c_str(), whole_us * 1e-6));
  const double ops_per_s = rep_refs / (best_us * 1e-6);

  if (!opt.trace) {
    res.add("setup_s", median(setup_samples), "s");
    res.add("ops_per_s", ops_per_s, "1/s");
    // The simulator issues no client requests: its latency is the time it
    // takes per reference, p50 and p99 over the references of a repetition
    // (see reference_percentile_us). It issues no writes, so write_* repeat
    // the read_* figures.
    const std::vector<std::uint64_t>& call_refs = reps.front().call_refs;
    const double p50 = reference_percentile_us(best_wall, call_refs, 50);
    const double p99 = reference_percentile_us(best_wall, call_refs, 99);
    res.add("read_p50_us", p50, "us");
    res.add("read_p99_us", p99, "us");
    res.add("write_p50_us", p50, "us");
    res.add("write_p99_us", p99, "us");
    res.add("miss_ratio",
            static_cast<double>(reps.front().misses) / static_cast<double>(reps.front().measured),
            "ratio");
    res.add("cpu_us_per_op", best_cpu_us / rep_refs, "us");
    res.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return res;
  }

  // ---- Traced run ----
  SpanNames names;
  SpanRecorder spans(1 << 16);
  std::vector<Repetition> traced;
  double traced_wall = 0.0, traced_steal = 0.0;
  timed(&spans, &names, traced, traced_wall, traced_steal);
  double traced_best_us = 0.0;
  for (double us : call_totals_us(segment_minima(traced, &Repetition::seg_wall_ns)))
    traced_best_us += us;

  // Driver overhead: the part of a repetition spent outside program calls,
  // per reference.
  std::vector<double> driver;
  for (const Repetition& r : reps)
    driver.push_back((r.seconds * 1e9 - r.calls_ns) / static_cast<double>(r.refs));

  // Contention: the ULC zipf cell alone against two copies on two workers.
  double contention_ns = 0.0;
  {
    ulc::exp::MatrixOptions one;
    one.threads = 1;
    const ulc::exp::ExperimentSpec& ulc_cell = in.cells[0];
    std::vector<double> alone, paired;
    for (int i = 0; i < 3; ++i) {
      std::uint64_t t0 = now_ns();
      ulc::exp::run_matrix({ulc_cell}, one);
      alone.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ulc_cell.trace_override->size()));
      ulc::exp::MatrixOptions two;
      two.threads = 2;
      t0 = now_ns();
      ulc::exp::run_matrix({ulc_cell, ulc_cell}, two);
      paired.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ulc_cell.trace_override->size()));
    }
    // Fastest of three each: host interference only adds time.
    contention_ns = *std::min_element(paired.begin(), paired.end()) -
                    *std::min_element(alone.begin(), alone.end());
  }

  LayerInputs li;
  li.single = in.zipf;
  li.multi = in.httpd;
  li.multi_clients = 7;
  li.multi_client_cap = 1024;
  li.multi_server_cap = 8192;
  li.caps = std::vector<std::size_t>(3, kCap);
  // The runtime layers replay the zipf trace over one 4-shard slice of a
  // RAM + near tier the size of the first two levels.
  li.shard_ram_blocks = kCap / 4;
  li.shard_near_blocks = kCap / 4;
  li.block_size = 4096;
  li.in_shard0 = [](std::uint64_t block) { return ulc::splitmix64_mix(block) % 4 == 0; };
  measure_layers(li, 0.5, names, spans, res, /*add_runtime_counts=*/true);

  // Reconciliation: each cell's isolated scheme replay cost plus the
  // protocol simulation, over the measured repetition time.
  {
    const double zipf_refs = static_cast<double>(in.zipf->size());
    const double layer_ns =
        zipf_refs * (res.value("hierarchy.ulc.ns_per_ref") + res.value("hierarchy.unilru.ns_per_ref") +
                     res.value("hierarchy.indlru.ns_per_ref") + res.value("hierarchy.lru_mq.ns_per_ref") +
                     res.value("proto.ulc.ns_per_ref")) +
        static_cast<double>(in.httpd->size()) * res.value("hierarchy.ulc_multi.ns_per_ref");
    res.add("runtime.layer_sum_over_e2e", layer_ns / (best_us * 1e3), "ratio");
  }
  res.add("runtime.contention_ns", contention_ns, "ns");
  res.add("workloads.synth_s", median(synth_samples), "s");
  res.add("bench.driver_overhead_ns", median(driver), "ns");
  res.add("bench.trace_overhead_frac", 1.0 - best_us / traced_best_us, "ratio");

  for (const SpanSummary& s : summarize_spans(names, {&spans})) {
    if (s.count == 0) continue;
    res.note(strprintf("span %-28s count %10llu  mean %12.1f ns", s.name.c_str(),
                       static_cast<unsigned long long>(s.count), s.total_ns / s.count));
  }
  const std::string path = output_dir() + "/spans-sim_paper-" + std::to_string(opt.seed) + ".json";
  if (write_span_file(path, names, {&spans}, 2000)) res.note("spans written to " + path);
  return res;
}

}  // namespace perfbench
