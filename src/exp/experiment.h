// Unified parallel experiment engine.
//
// Every bench harness and the ulctool sim/compare commands describe their
// work as a list of ExperimentSpec cells — one (scheme factory, trace, cost
// model, warmup) tuple per cell — and hand it to run_matrix(), which executes
// independent cells on a fixed pool of worker threads. Traces are synthesized
// once into a shared read-only TraceCache keyed by preset+scale+seed; each
// cell owns its scheme instance, so cells never share mutable state. Results
// come back in spec order regardless of scheduling, and everything except the
// wall-clock fields is bit-identical whether the matrix ran on 1 thread or 8.
//
// The single-cell primitive is run_scheme() (hierarchy/runner.h); this layer
// adds the grid, the pool, the trace sharing, and the structured JSON results
// (see cell_to_json for the schema).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "trace/trace.h"
#include "util/json.h"

namespace ulc::exp {

// Identifies a synthesized workload: the preset name accepted by
// make_preset() plus the scale/seed knobs. Equal specs share one Trace.
struct TraceSpec {
  std::string preset;
  double scale = 1.0;
  std::uint64_t seed = 1;

  std::string key() const;
};

// Thread-safe, synthesize-once trace store. get() for the same key returns a
// reference to the same immutable Trace no matter how many threads race on
// it; distinct keys synthesize concurrently. put() registers an ad-hoc trace
// (e.g. loaded from a file) under a caller-chosen key.
class TraceCache {
 public:
  TraceCache() = default;
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  const Trace& get(const TraceSpec& spec);
  const Trace& put(const std::string& key, Trace trace);

  // Number of traces actually synthesized/stored (for the one-synthesis-per-
  // key guarantee; see exp_test).
  std::size_t synthesis_count() const { return synthesized_.load(); }

 private:
  struct Entry {
    std::once_flag once;
    Trace trace;
  };
  Entry& entry_for(const std::string& key);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::atomic<std::size_t> synthesized_{0};
};

// Builds the scheme a cell runs. The cell's trace is passed in for factories
// that need it (make_opt_layout keeps the trace by reference).
using SchemeFactory = std::function<SchemePtr(const Trace&)>;

struct ExperimentSpec {
  std::string scheme;     // display name recorded in the result
  SchemeFactory factory;  // fresh scheme per cell
  TraceSpec trace;        // resolved through the TraceCache...
  std::shared_ptr<const Trace> trace_override;  // ...unless this is set
  CostModel model;
  double warmup_fraction = 0.1;
  // Harness-specific knobs (server capacity, link cost, ...) copied verbatim
  // into the result and its JSON, so grid rows stay self-describing.
  std::map<std::string, double> params;
};

struct CellResult {
  RunResult run;  // scheme/trace names, stats, T_ave breakdown
  double wall_seconds = 0.0;
  double refs_per_sec = 0.0;
  std::map<std::string, double> params;
  // Per-cell observability (response_ms histogram + named counters); null
  // when the matrix ran with observe=false or obs was compiled out. Owned by
  // the cell, deterministic: keyed to the cost model, never the wall clock.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

struct MatrixOptions {
  std::size_t threads = 1;
  // Optional externally-owned cache, shared across several run_matrix calls
  // (and with any extra serial work the harness does on the same traces).
  TraceCache* cache = nullptr;
  // Collect per-cell response-time histograms and counters (cheap: a few
  // vector compares per reference). observe=false restores the bare runner.
  bool observe = true;
};

// Executes every cell, using `options.threads` workers, and returns results
// in the same order as `specs`.
std::vector<CellResult> run_matrix(const std::vector<ExperimentSpec>& specs,
                                   const MatrixOptions& options = {});

// Generic order-preserving parallel loop used by the harnesses whose cells
// are not scheme replays (measure analysis, protocol simulation): runs
// fn(0..n-1) on min(threads, n) workers and rethrows the first exception.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

// ---- Structured results ----
//
// Cell schema (stable; tests/golden/cell_result.golden.json is the contract):
//   scheme, trace            names
//   references               measured references (post-warmup)
//   hit_ratios[]             per-level hit ratios, top first
//   miss_ratio
//   demotion_ratios[]        per-boundary demotions per reference
//   reload_ratios[]          per-boundary disk reloads per reference
//   counters{}               raw per-level counters (counters_to_json)
//   response_ms{}            per-reference critical-path latency histogram
//                            (count/mean/min/max/p50/p95/p99; null with
//                            observe=false, all-null fields when 0 samples)
//   t_ave_ms + time{hit_ms, miss_ms, demotion_ms, reload_disk_ms,
//                   writeback_disk_ms}
//   wall_seconds, refs_per_sec   (the only nondeterministic fields)
//   params{}                 harness knobs from the spec
Json cell_to_json(const CellResult& cell);
Json results_to_json(const std::vector<CellResult>& cells);

}  // namespace ulc::exp
