// Faulted protocol simulation: the legacy message-level simulator
// (proto/protocol_sim.h) replayed under a FaultPlan, with the client-side
// recovery protocol (proto/reliable.h) handling what the plan breaks.
//
// The simulator drives the *real* hierarchy schemes (hierarchy/hierarchy.h,
// optionally wrapped in the CheckedHierarchy auditor) instead of the legacy
// decision adapters, reads each access's narrated audit events to learn
// which protocol messages the scheme intends, and plays those messages over
// FaultyLinks. Alongside the scheme's directory it tracks what each level
// *actually* holds (copies arrive only when their transfer survives, crash
// wipes erase them), so a lost demote or a level restart makes the
// directory provably stale — and the recovery protocol (timeouts, bounded
// retries, circuit breaker + degraded mode, directory resync) has to earn
// every hit the run reports.
//
// With a fault-free plan the reliability layer disarms completely and the
// run reproduces run_protocol_sim byte for byte (tested): same traffic in
// the same order, same arithmetic, zero PRNG draws.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "proto/faults.h"
#include "proto/journal.h"
#include "proto/protocol_sim.h"
#include "proto/reliable.h"

namespace ulc {

struct FaultSimConfig {
  ProtocolConfig protocol;
  FaultSpec faults;                  // message-level fates (seeded)
  std::vector<CrashEvent> crashes;   // level restarts
  RetryPolicy retry;
  // Wrap the scheme in the CheckedHierarchy auditor (invariant checking on
  // every access and resync).
  bool checked = true;
  bool abort_on_violation = false;   // auditor aborts instead of throwing
  // Attach an epoch-stamped write-back journal: dirty blocks leaving the
  // hierarchy are queued on a dedicated storage channel, marked written when
  // the device completes them and acknowledged back in append order; a level
  // crash wipes the entries it had not yet acknowledged. Draws no PRNG and
  // never touches the read path, so fault-free parity holds either way.
  bool journal = true;
  std::string context;               // replay context for violation reports
  // Optional message-timeline recorder (reference spans, Demote transfers,
  // crash wipes, breaker trips/closes, probes). Purely additive: recording
  // never changes the run, so the fault-free byte-for-byte parity with
  // run_protocol_sim holds with or without it.
  obs::TraceRecorder* events = nullptr;
};

// Recovery phase a reference starts in: kNormal until the first breaker
// trips, kDegraded while any breaker is open, kRecovered after every
// breaker has closed again.
enum class FaultPhase : std::size_t { kNormal = 0, kDegraded = 1, kRecovered = 2 };
inline constexpr std::size_t kFaultPhases = 3;
const char* fault_phase_name(FaultPhase phase);

struct FaultedProtocolResult {
  ProtocolResult base;
  ReliabilityStats reliability;  // whole-run totals (not reset at warmup)
  JournalStats journal;          // write-back pipeline + data-loss accounting
  // Response time split by the phase each reference started in (reset at
  // warmup like base.response_hist), log-bucketed for tail percentiles
  // (p50/p95/p99) — the degraded-mode tail the mean hides.
  std::array<obs::LatencyHistogram, kFaultPhases> phase_hist;
  // The same split's moments: each phase_hist[p].moments(), copied out once
  // at the end of the run.
  std::array<OnlineStats, kFaultPhases> phase_response_ms;
  std::array<std::uint64_t, kFaultPhases> phase_references{};
  SimTime measure_start_ms = 0.0;
  SimTime end_ms = 0.0;  // final simulated time (for placing crashes)
};

// Runs `trace` (single-client) through the faulted simulator.
FaultedProtocolResult run_faulted_protocol_sim(ProtocolScheme scheme,
                                               const FaultSimConfig& config,
                                               const Trace& trace);

// Publishes the run's data-loss and staleness accounting as named obs
// counters ("durability.*", "staleness.*") so dashboards that scrape the
// registry see the fault story next to the performance counters.
void publish_fault_metrics(obs::MetricsRegistry& metrics,
                           const FaultedProtocolResult& result);

}  // namespace ulc
