// The benchmark's three workloads and the per-layer replays behind the
// traced run.
//
//   sim_paper    the paper's evaluation path through exp::run_matrix and
//                run_protocol_sim, on one thread; no runtime code runs.
//   serve_hot    ServingRuntime, 2 closed-loop clients, Zipf 0.9 over a
//                footprint that fits in RAM + near tier (hits dominate).
//   serve_churn  the same runtime over churning streaming sessions at 1/7
//                of the footprint (origin, near tier, write-back and the
//                directory queue dominate).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/tier.h"
#include "trace/trace.h"
#include "workloads/streaming.h"

namespace perfbench {

// ---- Serving workloads ----

enum class Traffic { kZipf, kStreaming };

struct ServingWorkload {
  std::string name;
  Traffic traffic = Traffic::kZipf;
  std::uint64_t zipf_blocks = 0;  // kZipf footprint
  double zipf_theta = 0.9;
  ulc::StreamingConfig streaming;  // kStreaming shape
  // The block layout (which ids are popular, how long each title runs) is
  // part of the workload's definition, the same for every seed: it fixes how
  // the hot set falls across shards, which would otherwise move throughput
  // by ~10% from seed to seed. The seed draws the requests.
  std::uint64_t layout_seed = 7;
  double write_frac = 0.0;
  // Capacities are totals; the benchmark splits them evenly across shards.
  std::size_t ram_blocks_total = 0;
  std::size_t near_blocks_total = 0;
  std::size_t cache_shards = 4;
  std::size_t directory_shards = 2;
  std::size_t client_threads = 2;
  std::size_t block_size = 4096;

  std::uint64_t footprint() const;
};

const ServingWorkload& serve_hot_workload();
const ServingWorkload& serve_churn_workload();

// A request: block id in the low bits, bit 63 set for a whole-block write.
constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
inline std::uint64_t op_block(std::uint64_t op) { return op & ~kWriteBit; }
inline bool op_is_write(std::uint64_t op) { return (op & kWriteBit) != 0; }

// Deterministic request stream `stream_id` of `n` requests for `seed`. Every
// stream of one seed shares the workload's layout (scramble permutation,
// catalogue); each stream draws its own requests.
std::vector<std::uint64_t> generate_stream(const ServingWorkload& w, std::uint64_t seed,
                                           std::uint64_t stream_id, std::size_t n);

// Wraps the backing origin the runtime is built over (the self-test injects
// a corrupting origin here). Identity when empty.
using OriginWrapper =
    std::function<std::unique_ptr<ulc::Origin>(std::unique_ptr<ulc::Origin>)>;

WorkloadResult run_serving(const ServingWorkload& w, const RunOptions& opt,
                           const OriginWrapper& wrap_origin = {});

// ---- Simulator workload ----

WorkloadResult run_sim_paper(const RunOptions& opt);

// ---- Per-layer replays (traced runs) ----

// The requests one workload generated, in the shapes the layer APIs take.
struct LayerInputs {
  // Single-client reference stream (block ids; Op::kWrite marks writes).
  std::shared_ptr<const ulc::Trace> single;
  // Multi-client stream for the multi-client ULC cell.
  std::shared_ptr<const ulc::Trace> multi;
  std::size_t multi_clients = 1;
  std::size_t multi_client_cap = 0;
  std::size_t multi_server_cap = 0;
  // Capacities of the hierarchy replayed by the hierarchy/ulc/replacement
  // layers (client first).
  std::vector<std::size_t> caps;
  // The isolated runtime layers replay a one-shard slice of `single` with
  // these capacities (the workload's per-shard split).
  std::size_t shard_ram_blocks = 0;
  std::size_t shard_near_blocks = 0;
  std::size_t block_size = 4096;
  // Keeps the references routed to shard 0 of the workload's cache layout.
  std::function<bool(std::uint64_t)> in_shard0;
};

// Replays `in` into each layer's public API on its own and appends the
// layer metrics to `out`. `budget_s` bounds the repeated replays. With
// `add_runtime_counts` (a workload that runs no runtime), the runtime's
// counted metrics come from the isolated one-shard cache replay.
void measure_layers(const LayerInputs& in, double budget_s, SpanNames& names,
                    SpanRecorder& spans, WorkloadResult& out, bool add_runtime_counts);

}  // namespace perfbench
