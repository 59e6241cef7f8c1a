// Per-layer replays for the traced run. Each layer is driven on its own,
// through its public API, with the requests the workload itself generated;
// the benchmark brackets each replay (or each call, where a per-call cost is
// reported) with its own clock and records one span per replay.
#include <algorithm>
#include <deque>
#include <thread>

#include "exp/experiment.h"
#include "hierarchy/hierarchy.h"
#include "obs/metrics.h"
#include "payload.h"
#include "proto/protocol_sim.h"
#include "replacement/cache_policy.h"
#include "runtime/block_cache.h"
#include "runtime/sharded_cache.h"
#include "ulc/ulc_client.h"
#include "ulc/uni_lru_stack.h"
#include "util/flat_hash.h"
#include "util/mpsc.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Cost of one now_ns() pair, subtracted from per-call timings.
double clock_pair_ns() {
  static const double cost = [] {
    constexpr int kPairs = 1 << 16;
    std::uint64_t sink = 0;
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      const std::uint64_t t0 = now_ns();
      sink += now_ns() - t0;
    }
    const double total = static_cast<double>(now_ns() - start);
    return sink == ~std::uint64_t{0} ? 0.0 : total / kPairs;
  }();
  return cost;
}

// Times `body` over the whole replay and records it as one span named after
// the metric it produces.
template <typename Body>
double timed_span(SpanNames& names, SpanRecorder& spans, const std::string& name, Body&& body) {
  const std::uint64_t t0 = now_ns();
  body();
  const std::uint64_t t1 = now_ns();
  spans.add(names.intern(name), 0, t0, t1);
  return static_cast<double>(t1 - t0);
}

// Mean of per-call timings, corrected for the clock pair around each call.
struct CallTimer {
  double total_ns = 0.0;
  std::uint64_t calls = 0;
  void add(std::uint64_t ns) {
    total_ns += static_cast<double>(ns);
    ++calls;
  }
  double mean() const {
    return calls == 0 ? 0.0 : std::max(0.0, total_ns / static_cast<double>(calls) - clock_pair_ns());
  }
};

ulc::CostModel model_for(std::size_t levels) {
  return levels == 3 ? ulc::CostModel::paper_three_level() : ulc::CostModel::paper_two_level();
}

std::size_t sum_from(const std::vector<std::size_t>& caps, std::size_t first) {
  std::size_t n = 0;
  for (std::size_t i = first; i < caps.size(); ++i) n += caps[i];
  return n;
}

// Warm-up share of every replay, as in run_scheme (paper: first tenth).
std::size_t warm_count(std::size_t n) { return n / 10; }

void measure_ulc(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                 WorkloadResult& out) {
  const std::vector<ulc::Request>& refs = in.single->requests();
  ulc::UlcConfig cfg;
  cfg.capacities = in.caps;
  ulc::UlcClient client(cfg);
  const std::size_t warm = warm_count(refs.size());
  for (std::size_t i = 0; i < warm; ++i) client.access(refs[i].block);
  std::uint64_t demotions = 0;
  const double ns = timed_span(names, spans, "ulc.access", [&] {
    for (std::size_t i = warm; i < refs.size(); ++i)
      demotions += client.access(refs[i].block).demotions.size();
  });
  const double n = static_cast<double>(refs.size() - warm);
  out.add("ulc.access_ns", ns / n, "ns");
  out.add("ulc.demotions_per_access", static_cast<double>(demotions) / n, "ratio");
}

void measure_hierarchy(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                       WorkloadResult& out) {
  const std::vector<std::size_t> caps = in.caps;
  struct Cell {
    const char* metric;
    ulc::SchemePtr scheme;
    const ulc::Trace* trace;
  };
  Cell cells[] = {
      {"hierarchy.ulc", ulc::make_ulc(caps), in.single.get()},
      {"hierarchy.unilru", ulc::make_uni_lru(caps), in.single.get()},
      {"hierarchy.indlru", ulc::make_ind_lru(caps), in.single.get()},
      {"hierarchy.lru_mq", ulc::make_mq_hierarchy(caps[0], sum_from(caps, 1), 1), in.single.get()},
      {"hierarchy.ulc_multi",
       ulc::make_ulc_multi(in.multi_client_cap, in.multi_server_cap, in.multi_clients),
       in.multi.get()},
  };
  for (Cell& c : cells) {
    const std::vector<ulc::Request>& refs = c.trace->requests();
    const double ns = timed_span(names, spans, c.metric, [&] { c.scheme->access_batch(refs); });
    out.add(std::string(c.metric) + ".ns_per_ref", ns / static_cast<double>(refs.size()), "ns");
  }
  const ulc::UniLruStack* stack = cells[0].scheme->audit_stack(0);
  out.add("hierarchy.ulc.slab_pages_carved",
          stack != nullptr ? static_cast<double>(stack->slab_stats().pages_carved) : 0.0, "count");
}

void measure_replacement(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                         WorkloadResult& out) {
  const std::vector<ulc::Request>& refs = in.single->requests();
  ulc::MqConfig mq;
  mq.capacity = sum_from(in.caps, 1);
  struct Policy {
    const char* metric;
    ulc::PolicyPtr policy;
  };
  Policy policies[] = {
      {"replacement.lru", ulc::make_lru(in.caps[0])},
      {"replacement.mq", ulc::make_mq(mq)},
  };
  for (Policy& p : policies) {
    ulc::EvictResult evicted;
    const double ns = timed_span(names, spans, p.metric, [&] {
      for (std::size_t i = 0; i < refs.size(); ++i) {
        ulc::AccessContext ctx;
        ctx.time = i;
        evicted.clear();
        p.policy->access(refs[i].block, ctx, &evicted);
      }
    });
    out.add(std::string(p.metric) + ".access_ns", ns / static_cast<double>(refs.size()), "ns");
  }
}

void measure_flatmap(const LayerInputs& in, double budget_s, SpanNames& names,
                     SpanRecorder& spans, WorkloadResult& out) {
  const std::vector<ulc::Request>& refs = in.single->requests();
  std::vector<ulc::BlockId> distinct;
  {
    ulc::FlatMap<ulc::BlockId, std::uint32_t> seen;
    for (const ulc::Request& r : refs) {
      if (seen.find(r.block) == nullptr) {
        seen.insert_new(r.block, 1);
        distinct.push_back(r.block);
      }
    }
  }
  ulc::FlatMap<ulc::BlockId, std::uint32_t> map;
  double insert_erase_ns = 0.0;
  std::uint64_t pairs = 0;
  const std::uint64_t start = now_ns();
  do {
    insert_erase_ns += timed_span(names, spans, "util.flatmap.insert_erase", [&] {
      for (ulc::BlockId b : distinct) map.insert_new(b, 1);
      for (ulc::BlockId b : distinct) map.erase(b);
    });
    pairs += distinct.size();
  } while (seconds_since(start) < budget_s / 2);
  for (ulc::BlockId b : distinct) map.insert_new(b, 1);
  std::uint64_t found = 0;
  const double find_ns = timed_span(names, spans, "util.flatmap.find", [&] {
    for (const ulc::Request& r : refs) found += map.find(r.block) != nullptr;
  });
  if (found != refs.size()) out.fail("FlatMap lost a key during the replay");
  out.add("util.flatmap.find_ns", find_ns / static_cast<double>(refs.size()), "ns");
  out.add("util.flatmap.insert_erase_ns", insert_erase_ns / static_cast<double>(pairs), "ns");
}

void measure_mpsc(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                  WorkloadResult& out) {
  // One producer posts a placement event per reference to one consumer, as
  // a cache shard does to its directory shard.
  const std::vector<ulc::Request>& refs = in.single->requests();
  const std::size_t n = std::min<std::size_t>(refs.size(), 1 << 20);
  ulc::BoundedMpsc<ulc::PlacementEvent> queue(4096);
  std::uint64_t consumed = 0;
  const double ns = timed_span(names, spans, "util.mpsc.push_pop", [&] {
    std::thread consumer([&queue, &consumed] {
      std::vector<ulc::PlacementEvent> batch;
      while (queue.pop_wait(batch) != 0) consumed += batch.size();
    });
    for (std::size_t i = 0; i < n; ++i)
      queue.push(ulc::PlacementEvent{refs[i].block, 0, ulc::PlacementEventKind::kStore});
    queue.close();
    consumer.join();
  });
  if (consumed != n) out.fail("MPSC queue lost events");
  out.add("util.mpsc.push_pop_ns", ns / static_cast<double>(n), "ns");
}

void measure_obs(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                 WorkloadResult& out) {
  // Record the response times the simulator's observe path would record for
  // these references: the ULC engine's hit level priced by the cost model.
  const std::vector<ulc::Request>& refs = in.single->requests();
  const ulc::CostModel model = model_for(in.caps.size());
  std::vector<double> samples;
  samples.reserve(refs.size());
  {
    ulc::UlcConfig cfg;
    cfg.capacities = in.caps;
    ulc::UlcClient client(cfg);
    for (const ulc::Request& r : refs) {
      const ulc::UlcAccess& a = client.access(r.block);
      double ms = a.miss() ? model.miss_time() : model.hit_time(a.hit_level);
      for (const ulc::DemoteCmd& d : a.demotions)
        if (d.to != ulc::kLevelOut && d.from < model.levels()) ms += model.demote_cost(d.from);
      samples.push_back(ms);
    }
  }
  ulc::obs::LatencyHistogram hist;
  const double ns = timed_span(names, spans, "obs.histogram_record", [&] {
    for (double ms : samples) hist.record(ms);
  });
  if (hist.count() != samples.size()) out.fail("histogram lost samples");
  out.add("obs.histogram_record_ns", ns / static_cast<double>(samples.size()), "ns");

  // The ULC cell through the engine with observe on against observe off.
  ulc::exp::ExperimentSpec spec;
  spec.scheme = "ULC";
  const std::vector<std::size_t> caps = in.caps;
  spec.factory = [caps](const ulc::Trace&) { return ulc::make_ulc(caps); };
  spec.trace_override = in.single;
  spec.model = model;
  std::vector<double> on, off;
  for (int i = 0; i < 3; ++i) {
    for (bool observe : {false, true}) {
      ulc::exp::MatrixOptions options;
      options.observe = observe;
      const double t = timed_span(names, spans, observe ? "obs.cell_observe_on" : "obs.cell_observe_off",
                                  [&] { ulc::exp::run_matrix({spec}, options); });
      (observe ? on : off).push_back(t);
    }
  }
  // Fastest of three each: host interference only ever adds time.
  out.add("obs.observe_overhead_frac",
          *std::min_element(on.begin(), on.end()) / *std::min_element(off.begin(), off.end()) - 1.0,
          "ratio");
}

void measure_proto(const LayerInputs& in, SpanNames& names, SpanRecorder& spans,
                   WorkloadResult& out) {
  ulc::ProtocolConfig cfg;
  if (in.caps.size() == 3) {
    cfg = ulc::ProtocolConfig::paper_three_level(in.caps);
  } else {
    cfg.caps = in.caps;
    cfg.links.assign(in.caps.size() - 1, ulc::LinkConfig{0.5, 16.0});
  }
  const double ns = timed_span(names, spans, "proto.ulc",
                               [&] { ulc::run_protocol_sim(ulc::ProtocolScheme::kUlc, cfg, *in.single); });
  out.add("proto.ulc.ns_per_ref", ns / static_cast<double>(in.single->size()), "ns");
}

// The one-shard slice of the single-client stream the runtime layers replay.
// A read-only stream (the simulator's traces) gets every 20th reference
// turned into a whole-block write so the write paths have samples.
std::vector<std::uint64_t> shard_slice(const LayerInputs& in) {
  bool any_write = false;
  for (const ulc::Request& r : in.single->requests()) any_write |= r.op == ulc::Op::kWrite;
  std::vector<std::uint64_t> ops;
  std::size_t kept = 0;
  for (const ulc::Request& r : in.single->requests()) {
    if (!in.in_shard0(r.block)) continue;
    const bool write = any_write ? r.op == ulc::Op::kWrite : kept % 20 == 19;
    ops.push_back(write ? (r.block | kWriteBit) : r.block);
    ++kept;
  }
  return ops;
}

void measure_runtime(const LayerInputs& in, const std::vector<std::uint64_t>& ops,
                     bool add_counts, SpanNames& names, SpanRecorder& spans,
                     WorkloadResult& out) {
  const std::size_t bs = in.block_size;
  std::vector<std::byte> buf(bs);
  std::vector<std::byte> payload(bs);

  // BlockCache: one shard over its own memory near tier and a synchronized
  // memory origin, warmed on the first tenth of the slice.
  {
    auto backing = ulc::make_memory_origin(bs);
    auto origin = ulc::make_synchronized_origin(*backing);
    auto near = ulc::make_memory_near_tier(in.shard_near_blocks, bs);
    ulc::BlockCacheConfig cfg;
    cfg.block_size = bs;
    cfg.memory_blocks = in.shard_ram_blocks;
    ulc::BlockCache cache(cfg, *near, *origin);
    CallTimer hit, near_hit, miss, write;
    std::uint64_t seq = 1;
    const std::size_t warm = warm_count(ops.size());
    ulc::BlockCacheStats before{};
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i == warm) before = cache.stats();
      const std::uint64_t block = op_block(ops[i]);
      if (op_is_write(ops[i])) {
        fill_payload(payload, block, Version{2, seq++});
        const std::uint64_t t0 = now_ns();
        cache.write(block, payload);
        const std::uint64_t t1 = now_ns();
        if (i >= warm) write.add(t1 - t0);
      } else {
        const ulc::BlockCacheStats s0 = cache.stats();
        const std::uint64_t t0 = now_ns();
        cache.read(block, buf);
        const std::uint64_t t1 = now_ns();
        if (i < warm) continue;
        const ulc::BlockCacheStats s1 = cache.stats();
        if (s1.memory_hits != s0.memory_hits) {
          hit.add(t1 - t0);
        } else if (s1.near_hits != s0.near_hits) {
          near_hit.add(t1 - t0);
        } else {
          miss.add(t1 - t0);
        }
      }
    }
    spans.add(names.intern("runtime.cache.replay"), 0, start, now_ns());
    out.add("runtime.cache.read_hit_ns", hit.mean(), "ns");
    out.add("runtime.cache.read_near_ns", near_hit.mean(), "ns");
    out.add("runtime.cache.read_miss_ns", miss.mean(), "ns");
    out.add("runtime.cache.write_ns", write.mean(), "ns");
    out.note(strprintf("runtime.cache isolated samples: %llu hit, %llu near, %llu miss, %llu write",
                       static_cast<unsigned long long>(hit.calls),
                       static_cast<unsigned long long>(near_hit.calls),
                       static_cast<unsigned long long>(miss.calls),
                       static_cast<unsigned long long>(write.calls)));
    if (add_counts) {
      // No runtime runs in this workload: the counts come from the isolated
      // one-shard replay (no directory, so its counts are zero).
      const ulc::BlockCacheStats a = cache.stats();
      const double n = static_cast<double>((a.reads - before.reads) + (a.writes - before.writes));
      const double w = static_cast<double>(a.writes - before.writes);
      out.add("runtime.memory_hit_ratio", (a.memory_hits - before.memory_hits) / n, "ratio");
      out.add("runtime.near_hit_ratio", (a.near_hits - before.near_hits) / n, "ratio");
      out.add("runtime.demotions_per_op", (a.demotions - before.demotions) / n, "ratio");
      out.add("runtime.writebacks_per_op", (a.writebacks - before.writebacks) / n, "ratio");
      out.add("runtime.origin_writes_per_write",
              w > 0 ? (a.writebacks - before.writebacks) / w : 0.0, "ratio");
      out.add("runtime.directory.events_per_op", 0.0, "ratio");
      out.add("runtime.directory.producer_waits", 0.0, "count");
      out.add("runtime.directory.max_depth", 0.0, "count");
      out.add("runtime.shard_load_max_over_mean", 1.0, "ratio");
    }
  }

  // NearTier: fetch, and store on a fetch miss, evicting the oldest stored
  // block at capacity (the tier itself makes no replacement decisions).
  {
    auto near = ulc::make_memory_near_tier(in.shard_near_blocks, bs);
    std::deque<ulc::BlockId> fifo;
    CallTimer fetch, store;
    const std::uint64_t start = now_ns();
    for (std::uint64_t op : ops) {
      const std::uint64_t block = op_block(op);
      std::uint64_t t0 = now_ns();
      const bool present = near->fetch(block, buf);
      fetch.add(now_ns() - t0);
      if (present) continue;
      if (fifo.size() == in.shard_near_blocks) {
        near->evict(fifo.front());
        fifo.pop_front();
      }
      fill_payload(payload, block, Version{2, 1});
      t0 = now_ns();
      near->store(block, payload);
      store.add(now_ns() - t0);
      fifo.push_back(block);
    }
    spans.add(names.intern("runtime.near.replay"), 0, start, now_ns());
    out.add("runtime.near.fetch_ns", fetch.mean(), "ns");
    out.add("runtime.near.store_ns", store.mean(), "ns");
  }

  // Origin through make_synchronized_origin, as ServingRuntime builds it.
  {
    auto backing = ulc::make_memory_origin(bs);
    auto origin = ulc::make_synchronized_origin(*backing);
    CallTimer read, write;
    std::uint64_t seq = 1;
    const std::uint64_t start = now_ns();
    for (std::uint64_t op : ops) {
      const std::uint64_t block = op_block(op);
      if (op_is_write(op)) {
        fill_payload(payload, block, Version{2, seq++});
        const std::uint64_t t0 = now_ns();
        origin->write(block, payload);
        write.add(now_ns() - t0);
      } else {
        const std::uint64_t t0 = now_ns();
        origin->read(block, buf);
        read.add(now_ns() - t0);
      }
    }
    spans.add(names.intern("runtime.origin.replay"), 0, start, now_ns());
    out.add("runtime.origin.read_ns", read.mean(), "ns");
    out.add("runtime.origin.write_ns", write.mean(), "ns");
  }
}

}  // namespace

void measure_layers(const LayerInputs& in, double budget_s, SpanNames& names,
                    SpanRecorder& spans, WorkloadResult& out, bool add_runtime_counts) {
  measure_ulc(in, names, spans, out);
  measure_hierarchy(in, names, spans, out);
  measure_replacement(in, names, spans, out);
  measure_flatmap(in, budget_s, names, spans, out);
  measure_mpsc(in, names, spans, out);
  measure_obs(in, names, spans, out);
  measure_proto(in, names, spans, out);
  measure_runtime(in, shard_slice(in), add_runtime_counts, names, spans, out);
}

}  // namespace perfbench
