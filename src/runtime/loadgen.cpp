#include "runtime/loadgen.h"

#include <cstring>
#include <thread>
#include <vector>

#include "util/ensure.h"
#include "util/prng.h"
#include "util/wallclock.h"
#include "workloads/synthetic.h"

namespace ulc {

namespace {

PatternPtr make_source(const LoadGenConfig& config) {
  if (config.workload == "zipf") {
    return make_zipf_source(/*base=*/0, config.footprint_blocks,
                            config.zipf_theta, /*scramble=*/true,
                            /*scramble_seed=*/config.seed);
  }
  if (config.workload == "streaming") return make_streaming_source(config.streaming);
  ULC_REQUIRE(false, "unknown workload (expected zipf or streaming)");
  return nullptr;
}

// Deterministic whole-block payload so concurrent readers always observe
// some writer's complete pattern (the stress tests rely on this shape too).
void fill_block(std::vector<std::byte>& buf, BlockId block, std::uint64_t salt) {
  SplitMix64 gen(block * 1000003ULL + salt);
  for (std::size_t i = 0; i + 8 <= buf.size(); i += 8) {
    const std::uint64_t v = gen.next();
    std::memcpy(&buf[i], &v, 8);
  }
}

struct WorkerOutput {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  obs::LatencyHistogram latency_ms;
};

void run_worker(const LoadGenConfig& config, ServingRuntime& runtime,
                const WallTimer& timer, std::size_t tid, std::uint64_t n_requests,
                WorkerOutput& out) {
  // Per-thread deterministic stream: own rng, own source over the shared
  // workload shape (streaming threads are independent viewer sessions over
  // one catalogue layout).
  Rng rng(config.seed * 0x9e3779b9ULL + tid + 1);
  PatternPtr source = make_source(config);
  const std::size_t block_size = config.serving.per_shard.block_size;
  std::vector<std::byte> buf(block_size);

  for (std::uint64_t i = 0; i < n_requests; ++i) {
    double start = timer.elapsed_seconds();
    if (config.rate > 0.0) {
      // Open loop: request i is due at i/rate regardless of how the server
      // is keeping up; lateness is part of the measured latency.
      const double scheduled = static_cast<double>(i) / config.rate;
      while (timer.elapsed_seconds() < scheduled) std::this_thread::yield();
      start = scheduled;
    }
    const BlockId block = source->next(rng);
    if (rng.next_bool(config.write_frac)) {
      fill_block(buf, block, /*salt=*/i);
      runtime.write(block, buf);
      ++out.writes;
    } else {
      runtime.read(block, buf);
      ++out.reads;
    }
    out.latency_ms.record((timer.elapsed_seconds() - start) * 1e3);
    ++out.requests;
  }
}

Json cache_stats_to_json(const BlockCacheStats& s) {
  Json j = Json::object();
  j.set("reads", s.reads);
  j.set("writes", s.writes);
  j.set("memory_hits", s.memory_hits);
  j.set("near_hits", s.near_hits);
  j.set("origin_reads", s.origin_reads);
  j.set("demotions", s.demotions);
  j.set("writebacks", s.writebacks);
  j.set("lock_parks", s.lock_parks);
  return j;
}

Json directory_stats_to_json(const DirectoryStats& d) {
  Json j = Json::object();
  j.set("applied", d.applied());
  j.set("resident", d.resident());
  Json shards = Json::array();
  for (const DirectoryShardStats& s : d.shards) {
    Json row = Json::object();
    row.set("applied", s.applied);
    row.set("resident", static_cast<std::uint64_t>(s.resident));
    row.set("stores", s.stores);
    row.set("promotes", s.promotes);
    row.set("demotes", s.demotes);
    row.set("discards", s.discards);
    row.set("writebacks", s.writebacks);
    row.set("evictions", s.evictions);
    Json queue = Json::object();
    queue.set("enqueued", s.queue.enqueued);
    queue.set("dequeued", s.queue.dequeued);
    queue.set("rejected", s.queue.rejected);
    queue.set("producer_waits", s.queue.producer_waits);
    queue.set("max_depth", s.queue.max_depth);
    queue.set("wakeups", s.queue.wakeups);
    row.set("queue", std::move(queue));
    shards.push(std::move(row));
  }
  j.set("shards", std::move(shards));
  return j;
}

}  // namespace

LoadGenResult run_serving_load(const LoadGenConfig& config) {
  ULC_REQUIRE(config.threads >= 1, "need at least one load thread");
  ULC_REQUIRE(config.requests >= 1, "need at least one request");

  auto backing = make_memory_origin(config.serving.per_shard.block_size);
  ServingRuntime runtime(config.serving, *backing);

  // Warm checkpoint for the streaming family: the catalogue layout must be
  // identical across threads, which make_streaming_source guarantees via
  // layout_seed — nothing to do here beyond construction.
  std::vector<WorkerOutput> outputs(config.threads);
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  const std::uint64_t base_n = config.requests / config.threads;
  const std::uint64_t extra = config.requests % config.threads;

  const WallTimer timer;
  for (std::size_t t = 0; t < config.threads; ++t) {
    const std::uint64_t n = base_n + (t < extra ? 1 : 0);
    workers.emplace_back([&config, &runtime, &timer, t, n, &outputs] {
      run_worker(config, runtime, timer, t, n, outputs[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall = timer.elapsed_seconds();

  runtime.drain();

  LoadGenResult result;
  for (const WorkerOutput& out : outputs) {  // fixed thread order
    result.requests += out.requests;
    result.reads += out.reads;
    result.writes += out.writes;
    result.latency_ms.merge(out.latency_ms);
  }
  result.wall_seconds = wall;
  result.requests_per_sec =
      wall > 0.0 ? static_cast<double>(result.requests) / wall : 0.0;
  result.cache = runtime.cache().stats();
  if (runtime.directory() != nullptr)
    result.directory = runtime.directory()->stats();
  return result;
}

Json load_result_to_json(const LoadGenConfig& config, const LoadGenResult& result) {
  Json j = Json::object();
  j.set("workload", config.workload);
  j.set("threads", static_cast<std::uint64_t>(config.threads));
  j.set("requests", result.requests);
  j.set("reads", result.reads);
  j.set("writes", result.writes);
  j.set("write_frac", config.write_frac);
  j.set("rate_per_thread", config.rate);
  j.set("seed", config.seed);
  Json shape = Json::object();
  shape.set("cache_shards", static_cast<std::uint64_t>(config.serving.cache_shards));
  shape.set("memory_blocks_per_shard",
            static_cast<std::uint64_t>(config.serving.per_shard.memory_blocks));
  shape.set("near_blocks_per_shard",
            static_cast<std::uint64_t>(config.serving.near_blocks_per_shard));
  shape.set("block_size", static_cast<std::uint64_t>(config.serving.per_shard.block_size));
  shape.set("directory_shards",
            config.serving.enable_directory
                ? Json(static_cast<std::uint64_t>(config.serving.directory.shards))
                : Json(nullptr));
  shape.set("directory_queue_capacity",
            config.serving.enable_directory
                ? Json(static_cast<std::uint64_t>(config.serving.directory.queue_capacity))
                : Json(nullptr));
  j.set("shape", std::move(shape));
  j.set("wall_seconds", result.wall_seconds);
  j.set("requests_per_sec", result.requests_per_sec);
  j.set("latency_ms", result.latency_ms.to_json());
  j.set("cache", cache_stats_to_json(result.cache));
  j.set("directory", directory_stats_to_json(result.directory));
  return j;
}

}  // namespace ulc
