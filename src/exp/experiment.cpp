#include "exp/experiment.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "util/ensure.h"
#include "util/wallclock.h"
#include "workloads/paper_presets.h"

namespace ulc::exp {

std::string TraceSpec::key() const {
  return preset + "@" + Json::format_double(scale) + "#" + std::to_string(seed);
}

TraceCache::Entry& TraceCache::entry_for(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Entry>& slot = entries_[key];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

const Trace& TraceCache::get(const TraceSpec& spec) {
  Entry& e = entry_for(spec.key());
  std::call_once(e.once, [&] {
    e.trace = make_preset(spec.preset, spec.scale, spec.seed);
    synthesized_.fetch_add(1);
  });
  return e.trace;
}

const Trace& TraceCache::put(const std::string& key, Trace trace) {
  Entry& e = entry_for(key);
  std::call_once(e.once, [&] {
    e.trace = std::move(trace);
    synthesized_.fetch_add(1);
  });
  return e.trace;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(threads == 0 ? 1 : threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

std::vector<CellResult> run_matrix(const std::vector<ExperimentSpec>& specs,
                                   const MatrixOptions& options) {
  TraceCache local_cache;
  TraceCache& cache = options.cache ? *options.cache : local_cache;
  std::vector<CellResult> results(specs.size());
  parallel_for(specs.size(), options.threads, [&](std::size_t i) {
    const ExperimentSpec& spec = specs[i];
    ULC_REQUIRE(static_cast<bool>(spec.factory), "ExperimentSpec needs a factory");
    const Trace& trace =
        spec.trace_override ? *spec.trace_override : cache.get(spec.trace);
    const WallTimer timer;
    SchemePtr scheme = spec.factory(trace);
    CellResult& cell = results[i];
    RunObservation observe;
    if (options.observe && obs::enabled()) {
      // Each cell owns its registry (no sharing across workers); results are
      // returned in spec order, so any downstream merge happens in a fixed
      // order no matter how cells were scheduled.
      cell.metrics = std::make_shared<obs::MetricsRegistry>();
      observe.metrics = cell.metrics.get();
    }
    cell.run =
        run_scheme(*scheme, trace, spec.model, spec.warmup_fraction, observe);
    cell.wall_seconds = timer.elapsed_seconds();
    cell.refs_per_sec = cell.wall_seconds > 0.0
                            ? static_cast<double>(trace.size()) / cell.wall_seconds
                            : 0.0;
    if (!spec.scheme.empty()) cell.run.scheme = spec.scheme;
    cell.params = spec.params;
  });
  return results;
}

Json cell_to_json(const CellResult& cell) {
  const RunResult& r = cell.run;
  Json out = Json::object();
  out.set("scheme", r.scheme);
  out.set("trace", r.trace);
  out.set("references", r.stats.references);

  Json hits = Json::array();
  for (std::size_t l = 0; l < r.stats.level_hits.size(); ++l)
    hits.push(r.stats.hit_ratio(l));
  out.set("hit_ratios", std::move(hits));
  out.set("miss_ratio", r.stats.miss_ratio());

  Json demotions = Json::array();
  for (std::size_t b = 0; b + 1 < r.stats.demotions.size(); ++b)
    demotions.push(r.stats.demotion_ratio(b));
  out.set("demotion_ratios", std::move(demotions));

  Json reloads = Json::array();
  const double n = static_cast<double>(r.stats.references);
  for (std::size_t b = 0; b + 1 < r.stats.reloads.size(); ++b)
    reloads.push(n > 0 ? static_cast<double>(r.stats.reloads[b]) / n : 0.0);
  out.set("reload_ratios", std::move(reloads));

  out.set("counters", counters_to_json(r.stats));
  if (cell.metrics) {
    const obs::LatencyHistogram* hist = cell.metrics->find_histogram("response_ms");
    out.set("response_ms", hist ? hist->to_json() : Json(nullptr));
  } else {
    out.set("response_ms", nullptr);
  }

  out.set("t_ave_ms", r.t_ave_ms);
  Json time = Json::object();
  time.set("hit_ms", r.time.hit_component);
  time.set("miss_ms", r.time.miss_component);
  time.set("demotion_ms", r.time.demotion_component);
  time.set("reload_disk_ms", r.time.reload_disk_ms);
  time.set("writeback_disk_ms", r.time.writeback_disk_ms);
  out.set("time", std::move(time));

  out.set("wall_seconds", cell.wall_seconds);
  out.set("refs_per_sec", cell.refs_per_sec);

  Json params = Json::object();
  for (const auto& [key, value] : cell.params) params.set(key, value);
  out.set("params", std::move(params));
  return out;
}

Json results_to_json(const std::vector<CellResult>& cells) {
  Json out = Json::array();
  for (const CellResult& cell : cells) out.push(cell_to_json(cell));
  return out;
}

}  // namespace ulc::exp
