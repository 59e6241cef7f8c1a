// Message-level protocol simulation of the cache hierarchy.
//
// The analytic model of §4.1 charges every demotion a fixed link cost. This
// simulator instead *plays the messages*: read requests, block replies and
// demotion transfers are serialized over store-and-forward links with
// latency and finite bandwidth, and disk reads serialize at the disk. A
// demoted block occupies the downlink and delays the read requests queued
// behind it, so schemes with heavy demotion traffic (uniLRU at ~1 demotion
// per reference) measure *worse* than their analytic T_ave once links are
// slow — the effect Chen et al. [15] reported and the paper leans on when
// it refuses to assume demotions can be hidden.
//
// The client is closed-loop (one outstanding request, the trace-driven
// regime of the paper); demotion transfers are issued asynchronously after
// the triggering reference completes and contend with later traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "hierarchy/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "proto/link.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace ulc {

enum class ProtocolScheme { kUlc, kUniLru, kIndLru };

const char* protocol_scheme_name(ProtocolScheme scheme);

struct ProtocolConfig {
  std::vector<std::size_t> caps;      // cache levels, client first
  std::vector<LinkConfig> links;      // one per adjacent level pair
  SimTime disk_service_ms = 10.0;     // per block read at the disk
  double warmup_fraction = 0.1;

  // The paper's three-level setting: ~1ms LAN, ~0.2ms SAN, 10ms disk.
  static ProtocolConfig paper_three_level(std::vector<std::size_t> caps);
};

struct ProtocolResult {
  ProtocolScheme scheme = ProtocolScheme::kUlc;
  // Measured response time per reference (after warm-up), log-bucketed for
  // percentiles (p50/p95/p99). Keyed to sim time only; recording it does not
  // perturb the simulation.
  obs::LatencyHistogram response_hist;
  // The same samples' moments: response_hist.moments(), copied out once at
  // the end of the run.
  OnlineStats response_ms;
  // Event counts (hits per level, misses, demotions) as in the trace runner.
  HierarchyStats stats;
  // Per-link utilization over the measured period: busy transmission time /
  // elapsed time, down and up directions.
  std::vector<double> link_down_utilization;
  std::vector<double> link_up_utilization;
  double disk_utilization = 0.0;
  // What the analytic model of §4.1 predicts for the same run (same counts,
  // per-link cost = latency + one block transmission). The gap between this
  // and response_ms.mean() is pure queueing.
  double analytic_t_ave_ms = 0.0;
  // Wall-clock span of the measured period (ms of simulated time).
  double elapsed_ms = 0.0;
};

// Runs the trace through the protocol simulator. The trace must be
// single-client. caps.size() >= 1; links.size() == caps.size() - 1... plus
// the disk behind the last level. A non-null `events` recorder captures the
// message timeline (reference spans on the client track, Demote transfer
// spans on the level tracks) in simulated time; it never changes the run.
ProtocolResult run_protocol_sim(ProtocolScheme scheme, const ProtocolConfig& config,
                                const Trace& trace,
                                obs::TraceRecorder* events = nullptr);

// The §4.1 analytic prediction for the given event counts under `config`:
// per-hop cost = link latency + one block transmission, disk behind the
// last level. Shared by the fault-free and faulted simulators.
double protocol_analytic_t_ave(const ProtocolConfig& config,
                               const HierarchyStats& stats);

}  // namespace ulc
