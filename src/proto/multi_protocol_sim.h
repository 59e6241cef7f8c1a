// Event-driven multi-client protocol simulation (the [15] scenario).
//
// N closed-loop clients share one LAN segment to the storage server and one
// disk behind it. Every client runs its own request stream; caching
// decisions come from a MultiLevelScheme (ULC, uniLRU, LRU+MQ, indLRU — the
// same objects the trace-driven runner uses), while this simulator plays the
// network: 64-byte requests and 8KB blocks serialize FIFO on the shared
// segment, disk reads serialize at the disk, and demotion transfers contend
// with everyone's requests. This is where unified-LRU's demote-per-reference
// behaviour turns into measured response-time collapse: seven clients'
// demotions saturate the shared downlink long before the reads do.
//
// Unlike the trace-driven runner, the interleaving of clients is *emergent*:
// a client issues its next reference only when the previous one completes,
// so slow schemes see their request streams stretch out.
#pragma once

#include <memory>
#include <vector>

#include "hierarchy/hierarchy.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "proto/link.h"
#include "util/stats.h"
#include "workloads/synthetic.h"

namespace ulc {

struct MultiProtocolConfig {
  std::size_t refs_per_client = 10000;
  double warmup_fraction = 0.1;   // of each client's references
  LinkConfig shared_lan{0.5, 16.0};  // ~1ms per 8KB block
  SimTime disk_service_ms = 10.0;
  SimTime think_time_ms = 0.05;   // client work between references
  std::uint64_t seed = 1;
  // Optional message-timeline recorder (one lane per client); never changes
  // the simulation.
  obs::TraceRecorder* events = nullptr;
};

struct MultiProtocolResult {
  std::string scheme;
  // Response time per reference across all clients, after per-client warmup,
  // log-bucketed for percentiles (p50/p95/p99).
  obs::LatencyHistogram response_hist;
  // The same samples' moments: response_hist.moments(), copied out once at
  // the end of the run.
  OnlineStats response_ms;
  HierarchyStats stats;  // post-warmup event counts
  double lan_down_utilization = 0.0;
  double lan_up_utilization = 0.0;
  double disk_utilization = 0.0;
  double elapsed_ms = 0.0;  // simulated makespan
  // Completed references per simulated second (system throughput).
  double throughput_per_s = 0.0;
  // §4.1 analytic prediction for the same event counts.
  double analytic_t_ave_ms = 0.0;
};

// Runs the simulation: client c draws references from sources[c]. The scheme
// must be a two-level hierarchy built for sources.size() clients. Sources
// are consumed.
MultiProtocolResult run_multi_protocol_sim(MultiLevelScheme& scheme,
                                           std::vector<PatternPtr> sources,
                                           const MultiProtocolConfig& config);

}  // namespace ulc
