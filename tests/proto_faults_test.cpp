// Fault-injection and recovery-protocol tests: deterministic fault plans,
// retry/backoff arithmetic, the fault-free byte-parity guarantee of the
// faulted simulator, zero-invariant-violation faulted runs, the directory
// resync hooks, and the kResyncAmnesia mutation that keeps the auditor's
// resync checking honest.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "check/checked_hierarchy.h"
#include "check/mutations.h"
#include "exp/experiment.h"
#include "hierarchy/hierarchy.h"
#include "proto/fault_sim.h"
#include "proto/faults.h"
#include "proto/reliable.h"
#include "trace/size_table.h"
#include "ulc/ulc_client.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

Trace proto_trace(std::uint64_t refs = 30000) {
  auto src = make_zipf_source(0, 500, 0.9, true, 7);
  return generate(*src, refs, 9, "z");
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---- FaultPlan ----

TEST(FaultPlan, SameSeedSameFateStream) {
  FaultSpec spec;
  spec.loss = 0.1;
  spec.duplicate = 0.05;
  spec.delay = 0.2;
  spec.delay_ms = 3.0;
  spec.seed = 42;
  FaultPlan a(spec, {});
  FaultPlan b(spec, {});
  for (int i = 0; i < 2000; ++i) {
    const MessageFate fa = a.next_fate();
    const MessageFate fb = b.next_fate();
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.duplicated, fb.duplicated);
    EXPECT_TRUE(bitwise_equal(fa.extra_delay_ms, fb.extra_delay_ms));
  }
  EXPECT_TRUE(bitwise_equal(a.jitter01(), b.jitter01()));
}

TEST(FaultPlan, FaultFreePlanMakesNoDraws) {
  FaultPlan plan(FaultSpec{}, {});
  EXPECT_TRUE(plan.fault_free());
  EXPECT_FALSE(plan.message_faults());
  for (int i = 0; i < 100; ++i) {
    const MessageFate f = plan.next_fate();
    EXPECT_FALSE(f.dropped);
    EXPECT_FALSE(f.duplicated);
    EXPECT_EQ(f.extra_delay_ms, 0.0);
  }
  // No draws were consumed above: the first jitter draw equals a fresh
  // plan's first draw.
  FaultPlan fresh(FaultSpec{}, {});
  EXPECT_TRUE(bitwise_equal(plan.jitter01(), fresh.jitter01()));
}

TEST(FaultPlan, CrashScheduleEpochAndOutage) {
  std::vector<CrashEvent> crashes = {{1, 100.0, 50.0}, {1, 400.0, 10.0},
                                     {2, 200.0, 25.0}};
  FaultPlan plan(FaultSpec{}, crashes);
  EXPECT_FALSE(plan.fault_free());
  EXPECT_EQ(plan.epoch_at(1, 99.9), 0u);
  EXPECT_EQ(plan.epoch_at(1, 100.0), 1u);
  EXPECT_EQ(plan.epoch_at(1, 399.0), 1u);
  EXPECT_EQ(plan.epoch_at(1, 400.0), 2u);
  EXPECT_EQ(plan.epoch_at(2, 250.0), 1u);
  EXPECT_EQ(plan.epoch_at(3, 1e9), 0u);  // never-crashing level
  EXPECT_TRUE(plan.down_at(1, 100.0));
  EXPECT_TRUE(plan.down_at(1, 149.9));
  EXPECT_FALSE(plan.down_at(1, 150.0));
  EXPECT_FALSE(plan.down_at(2, 100.0));
  ASSERT_EQ(plan.crash_times(1).size(), 2u);
  EXPECT_EQ(plan.crash_times(1)[0], 100.0);
  EXPECT_EQ(plan.crash_times(1)[1], 400.0);
}

// ---- FaultyLink ----

TEST(FaultyLink, FaultFreeMatchesRawLink) {
  ReliabilityStats stats;
  FaultPlan plan(FaultSpec{}, {});
  const LinkConfig lc{0.5, 16.0};
  FaultyLink faulty(lc, plan, stats);
  SimLink raw(lc);
  SimTime t = 0.0;
  for (int i = 0; i < 50; ++i) {
    const FaultyLink::Delivery d = faulty.transfer(0, kBlockBytes, t);
    const SimTime expect = raw.deliver_at(0, kBlockBytes, t);
    ASSERT_TRUE(d.arrived);
    EXPECT_TRUE(bitwise_equal(d.at, expect));
    t += 0.25;
  }
  EXPECT_EQ(stats.messages_lost, 0u);
}

TEST(FaultyLink, ClampNeverChangesArrivals) {
  // An issue time in the past (a retry computed from an earlier deadline)
  // is clamped up to the link's last send; since the link was still busy
  // then, the arrival is the same as the raw FIFO arrival.
  ReliabilityStats stats;
  FaultPlan plan(FaultSpec{}, {});
  const LinkConfig lc{0.1, 8.0};
  FaultyLink faulty(lc, plan, stats);
  SimLink raw(lc);
  (void)faulty.transfer(0, kBlockBytes, 10.0);
  (void)raw.deliver_at(0, kBlockBytes, 10.0);
  // `when` regressed below the previous send: raw SimLink would abort on
  // the FIFO precondition; the faulty wrapper clamps and still agrees with
  // a FIFO-legal issue at the clamp point.
  const FaultyLink::Delivery d = faulty.transfer(0, kControlBytes, 3.0);
  const SimTime expect = raw.deliver_at(0, kControlBytes, 10.0);
  EXPECT_TRUE(bitwise_equal(d.at, expect));
}

TEST(FaultyLink, AllLossDropsEveryDelivery) {
  ReliabilityStats stats;
  FaultSpec spec;
  spec.loss = 1.0;
  FaultPlan plan(spec, {});
  FaultyLink faulty(LinkConfig{0.1, 8.0}, plan, stats);
  for (int i = 0; i < 20; ++i)
    EXPECT_FALSE(faulty.transfer(0, kControlBytes, static_cast<SimTime>(i)).arrived);
  EXPECT_EQ(stats.messages_lost, 20u);
  // Lost frames still occupied the wire.
  EXPECT_GT(faulty.raw().busy_ms(0), 0.0);
}

// ---- retry_timeout / SequenceWindow / LevelBreaker ----

TEST(RetryTimeout, ExponentialBackoffWithCapAndJitter) {
  RetryPolicy policy;  // x4 initial, x2 backoff, cap 1000ms
  const SimTime rtt = 2.0;
  EXPECT_DOUBLE_EQ(retry_timeout(policy, rtt, 0, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(retry_timeout(policy, rtt, 1, 0.0), 16.0);
  EXPECT_DOUBLE_EQ(retry_timeout(policy, rtt, 2, 0.0), 32.0);
  // Jitter stretches the timeout by at most `jitter` (25%).
  const SimTime jittered = retry_timeout(policy, rtt, 0, 0.999);
  EXPECT_GT(jittered, 8.0);
  EXPECT_LT(jittered, 8.0 * (1.0 + policy.jitter) + 1e-9);
  // The cap wins eventually (before jitter).
  EXPECT_LE(retry_timeout(policy, rtt, 20, 0.0), policy.max_timeout_ms);
}

TEST(SequenceWindow, AcceptsOnceAndBoundsMemory) {
  SequenceWindow w;
  EXPECT_TRUE(w.accept(0));
  EXPECT_FALSE(w.accept(0));  // duplicate
  EXPECT_TRUE(w.accept(2));   // ahead of the frontier
  EXPECT_FALSE(w.accept(2));
  EXPECT_TRUE(w.accept(1));   // fills the gap; frontier advances past 2
  EXPECT_FALSE(w.accept(1));
  EXPECT_FALSE(w.accept(2));
  EXPECT_TRUE(w.accept(3));
  EXPECT_EQ(w.duplicates_ignored(), 4u);
}

TEST(LevelBreaker, TripProbeRecoverCycle) {
  LevelBreaker b;
  EXPECT_FALSE(b.open());
  EXPECT_FALSE(b.ever_tripped());
  EXPECT_FALSE(b.probe_due(100.0));
  b.trip(10.0);
  EXPECT_TRUE(b.open());
  EXPECT_TRUE(b.ever_tripped());
  EXPECT_TRUE(b.probe_due(10.0));  // first probe may go immediately
  b.probe_sent(10.0, 50.0);
  EXPECT_FALSE(b.probe_due(59.9));
  EXPECT_TRUE(b.probe_due(60.0));
  b.close();
  EXPECT_FALSE(b.open());
  EXPECT_TRUE(b.ever_tripped());
  EXPECT_FALSE(b.probe_due(1000.0));
}

// ---- EventQueue run_until + event-count guard ----

TEST(EventQueue, RunUntilFiresPrefixAndAdvancesClock) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(5.0, [&] { fired.push_back(5); });
  EXPECT_EQ(q.run_until(2.0), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);  // clock advances to t even mid-queue
  EXPECT_EQ(q.pending(), 1u);
  // Advancing past the last event drains it and still lands now() on t.
  EXPECT_EQ(q.run_until(100.0), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 100.0);
  EXPECT_EQ(q.events_fired(), 3u);
}

TEST(EventQueueDeathTest, EventLimitAbortsRetryStorm) {
  ASSERT_DEATH(
      {
        EventQueue q;
        q.set_event_limit(100);
        // A "retry loop" that reschedules itself forever.
        std::function<void()> storm = [&] { q.schedule_in(1.0, storm); };
        storm();
        q.run();
      },
      "event-count limit exceeded");
}

// ---- fault-free byte parity with the legacy simulator ----

TEST(FaultSim, FaultFreeMatchesLegacySimulatorExactly) {
  const Trace t = proto_trace();
  const ProtocolConfig cfg = ProtocolConfig::paper_three_level({64, 64, 64});
  for (ProtocolScheme scheme : {ProtocolScheme::kUlc, ProtocolScheme::kUniLru,
                                ProtocolScheme::kIndLru}) {
    const ProtocolResult legacy = run_protocol_sim(scheme, cfg, t);
    for (bool checked : {true, false}) {
      FaultSimConfig fc;
      fc.protocol = cfg;
      fc.checked = checked;
      const FaultedProtocolResult f = run_faulted_protocol_sim(scheme, fc, t);
      const ProtocolResult& b = f.base;
      const char* name = protocol_scheme_name(scheme);
      EXPECT_EQ(legacy.stats.references, b.stats.references) << name;
      EXPECT_EQ(legacy.stats.level_hits, b.stats.level_hits) << name;
      EXPECT_EQ(legacy.stats.misses, b.stats.misses) << name;
      EXPECT_EQ(legacy.stats.demotions, b.stats.demotions) << name;
      EXPECT_TRUE(bitwise_equal(legacy.response_ms.mean(), b.response_ms.mean()))
          << name << " mean " << legacy.response_ms.mean() << " vs "
          << b.response_ms.mean();
      EXPECT_TRUE(bitwise_equal(legacy.response_ms.max(), b.response_ms.max()))
          << name;
      EXPECT_TRUE(bitwise_equal(legacy.elapsed_ms, b.elapsed_ms)) << name;
      EXPECT_TRUE(
          bitwise_equal(legacy.analytic_t_ave_ms, b.analytic_t_ave_ms))
          << name;
      EXPECT_TRUE(bitwise_equal(legacy.disk_utilization, b.disk_utilization))
          << name;
      for (std::size_t l = 0; l < legacy.link_down_utilization.size(); ++l) {
        EXPECT_TRUE(bitwise_equal(legacy.link_down_utilization[l],
                                  b.link_down_utilization[l]))
            << name;
        EXPECT_TRUE(bitwise_equal(legacy.link_up_utilization[l],
                                  b.link_up_utilization[l]))
            << name;
      }
      // The reliability layer never engaged.
      EXPECT_EQ(f.reliability.timeouts, 0u) << name;
      EXPECT_EQ(f.reliability.retries, 0u) << name;
      EXPECT_EQ(f.phase_references[static_cast<std::size_t>(FaultPhase::kNormal)],
                b.stats.references)
          << name;
    }
  }
}

// ---- faulted runs: zero invariant violations, visible recovery ----

FaultSimConfig faulted_config(double loss, bool with_crash) {
  FaultSimConfig fc;
  fc.protocol = ProtocolConfig::paper_three_level({64, 64, 64});
  fc.faults.loss = loss;
  fc.faults.seed = 5;
  if (with_crash) {
    // Mid-run restart of the server level, long enough to trip the breaker
    // (the retry budget at these link speeds exhausts within ~90ms).
    fc.crashes.push_back(CrashEvent{1, 40000.0, 1000.0});
  }
  fc.checked = true;  // throwing mode: a violation fails the test
  fc.context = "proto_faults_test";
  return fc;
}

TEST(FaultSim, FaultedRunKeepsEveryInvariant) {
  const Trace t = proto_trace();
  for (ProtocolScheme scheme : {ProtocolScheme::kUlc, ProtocolScheme::kUniLru,
                                ProtocolScheme::kIndLru}) {
    const FaultSimConfig fc = faulted_config(0.01, true);
    FaultedProtocolResult r;
    ASSERT_NO_THROW(r = run_faulted_protocol_sim(scheme, fc, t))
        << protocol_scheme_name(scheme);
    EXPECT_GT(r.reliability.messages_lost, 0u);
    EXPECT_GT(r.reliability.retries, 0u);
    // Stats reset at the end of warm-up; every post-warmup reference counts.
    const auto warmup = static_cast<std::uint64_t>(
        fc.protocol.warmup_fraction * static_cast<double>(t.size()));
    EXPECT_EQ(r.base.stats.references, t.size() - warmup);
  }
}

TEST(FaultSim, CrashTripsBreakerAndRecovers) {
  const Trace t = proto_trace();
  const FaultSimConfig fc = faulted_config(0.01, true);
  const FaultedProtocolResult r =
      run_faulted_protocol_sim(ProtocolScheme::kUlc, fc, t);
  const ReliabilityStats& rs = r.reliability;
  EXPECT_GT(rs.breaker_trips, 0u);
  EXPECT_GT(rs.probes, 0u);
  EXPECT_GT(rs.recoveries, 0u);
  // The epoch advance forced a directory purge, and degraded + recovered
  // phases are both visible in the per-phase accounting.
  EXPECT_GT(rs.resync_level_purges, 0u);
  EXPECT_GT(rs.resync_purged_entries, 0u);
  EXPECT_GT(
      r.phase_references[static_cast<std::size_t>(FaultPhase::kDegraded)], 0u);
  EXPECT_GT(
      r.phase_references[static_cast<std::size_t>(FaultPhase::kRecovered)], 0u);
  const std::uint64_t total =
      r.phase_references[0] + r.phase_references[1] + r.phase_references[2];
  EXPECT_EQ(total, r.base.stats.references);
}

// Every measured reference lands in exactly one phase stream; each phase's
// moments are its histogram's, and together they reproduce the base stream.
TEST(FaultSim, PhaseMomentsPartitionTheBaseStream) {
  const Trace t = proto_trace();
  const FaultedProtocolResult r =
      run_faulted_protocol_sim(ProtocolScheme::kUlc, faulted_config(0.01, true), t);
  EXPECT_EQ(r.base.response_ms.count(), r.base.stats.references);
  EXPECT_TRUE(bitwise_equal(r.base.response_ms.mean(), r.base.response_hist.mean()));
  double weighted = 0.0;
  for (std::size_t p = 0; p < kFaultPhases; ++p) {
    const OnlineStats& m = r.phase_response_ms[p];
    EXPECT_EQ(m.count(), r.phase_references[p]) << p;
    EXPECT_EQ(m.count(), r.phase_hist[p].count()) << p;
    EXPECT_TRUE(bitwise_equal(m.mean(), r.phase_hist[p].mean())) << p;
    weighted += m.mean() * static_cast<double>(m.count());
  }
  const double n = static_cast<double>(r.base.response_ms.count());
  EXPECT_NEAR(weighted / n, r.base.response_ms.mean(), 1e-9 * r.base.response_ms.mean());
}

TEST(FaultSim, SameSeedSameResultAcrossThreadCounts) {
  const Trace t = proto_trace(12000);
  const std::vector<double> losses = {0.0, 0.01, 0.03, 0.05};
  auto run_cells = [&](std::size_t threads) {
    std::vector<FaultedProtocolResult> out(losses.size());
    exp::parallel_for(out.size(), threads, [&](std::size_t i) {
      FaultSimConfig fc = faulted_config(losses[i], i % 2 == 1);
      out[i] = run_faulted_protocol_sim(ProtocolScheme::kUlc, fc, t);
    });
    return out;
  };
  const auto a = run_cells(1);
  const auto b = run_cells(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(
        bitwise_equal(a[i].base.response_ms.mean(), b[i].base.response_ms.mean()))
        << "cell " << i;
    EXPECT_TRUE(bitwise_equal(a[i].end_ms, b[i].end_ms)) << "cell " << i;
    EXPECT_EQ(a[i].base.stats.level_hits, b[i].base.stats.level_hits)
        << "cell " << i;
    EXPECT_EQ(a[i].reliability.retries, b[i].reliability.retries)
        << "cell " << i;
    EXPECT_EQ(a[i].reliability.resync_drops, b[i].reliability.resync_drops)
        << "cell " << i;
  }
}

// ---- write-back journal and durability under faults ----

// A write-bearing twin of proto_trace with deterministic per-block sizes
// (variant 0: bimodal footprints, variant 1: heavy-tail).
Trace sized_write_trace(int variant) {
  auto src = make_zipf_source(0, 500, 0.9, true, 7);
  Trace t = with_writes(generate(*src, 20000, 9, "zw"), 0.2, 11);
  if (variant == 0) {
    stamp_sizes(t, assign_bimodal_sizes(0, 500, 1, 4, 0.25, 17));
  } else {
    stamp_sizes(t, assign_heavy_tail_sizes(0, 500, 1.1, 8, 19));
  }
  return t;
}

// Regression for the crash-during-demotion window: a demote issued against
// the sender's view of the target is refused (and the directory repaired)
// when the target restarted — a new epoch — before the data arrived.
// Without the epoch stamp the payload would land in the rebuilt level while
// the rest of the recovery machinery believes it was wiped.
TEST(FaultSim, CrashDuringDemotionIsDroppedCrossEpoch) {
  const Trace t = proto_trace();
  for (ProtocolScheme scheme :
       {ProtocolScheme::kUlc, ProtocolScheme::kUniLru}) {
    const FaultSimConfig fc = faulted_config(0.01, true);
    FaultedProtocolResult r;
    ASSERT_NO_THROW(r = run_faulted_protocol_sim(scheme, fc, t))
        << protocol_scheme_name(scheme);
    EXPECT_GE(r.reliability.cross_epoch_drops, 1u)
        << protocol_scheme_name(scheme);
  }
}

TEST(FaultSim, SizedWriteTracesUnderCrashesKeepDurabilityLaws) {
  for (int variant : {0, 1}) {
    const Trace t = sized_write_trace(variant);
    for (ProtocolScheme scheme : {ProtocolScheme::kUlc, ProtocolScheme::kUniLru,
                                  ProtocolScheme::kIndLru}) {
      FaultSimConfig fc = faulted_config(0.01, true);
      fc.context = std::string("sized durability v") + std::to_string(variant);
      FaultedProtocolResult r;
      // checked=true throwing mode: byte-budget conservation and the live
      // durability laws both gate the run.
      ASSERT_NO_THROW(r = run_faulted_protocol_sim(scheme, fc, t))
          << protocol_scheme_name(scheme) << " variant " << variant;
      const JournalStats& js = r.journal;
      EXPECT_GT(js.appended, 0u);
      // No acknowledged write is ever lost, under any crash schedule.
      EXPECT_EQ(js.lost_acked, 0u);
      // Byte conservation through the pipeline: every journaled byte either
      // reached storage and was acknowledged, or was wiped unacknowledged
      // by the crash (and is reported as such, not silently dropped).
      EXPECT_EQ(js.appended, js.acked + js.lost_unacked);
      EXPECT_EQ(js.appended_bytes, js.acked_bytes + js.lost_unacked_bytes);
    }
  }
}

TEST(FaultSim, NoAcknowledgedWriteLostUnderAnyCrashSchedule) {
  const Trace t = sized_write_trace(0);
  struct Schedule {
    const char* name;
    std::vector<CrashEvent> crashes;
  };
  const Schedule schedules[] = {
      {"mid-level long outage", {{1, 40000.0, 1000.0}}},
      {"mid-level blink", {{1, 40000.0, 2.0}}},
      {"server long outage", {{2, 40000.0, 1000.0}}},
      {"double crash", {{1, 30000.0, 500.0}, {2, 60000.0, 500.0}}},
  };
  for (const Schedule& s : schedules) {
    FaultSimConfig fc = faulted_config(0.01, false);
    fc.crashes = s.crashes;
    fc.context = std::string("crash schedule: ") + s.name;
    FaultedProtocolResult r;
    ASSERT_NO_THROW(r = run_faulted_protocol_sim(ProtocolScheme::kUlc, fc, t))
        << s.name;
    EXPECT_EQ(r.journal.lost_acked, 0u) << s.name;
    EXPECT_EQ(r.journal.appended, r.journal.acked + r.journal.lost_unacked)
        << s.name;
  }
}

TEST(FaultSim, JournalToggleKeepsFaultFreeParity) {
  // The journal rides a dedicated storage channel and draws no PRNG, so a
  // fault-free run is byte-identical with it on or off.
  const Trace t = sized_write_trace(0);
  FaultSimConfig on;
  on.protocol = ProtocolConfig::paper_three_level({64, 64, 64});
  FaultSimConfig off = on;
  off.journal = false;
  const FaultedProtocolResult a =
      run_faulted_protocol_sim(ProtocolScheme::kUlc, on, t);
  const FaultedProtocolResult b =
      run_faulted_protocol_sim(ProtocolScheme::kUlc, off, t);
  EXPECT_TRUE(bitwise_equal(a.base.response_ms.mean(), b.base.response_ms.mean()));
  EXPECT_TRUE(bitwise_equal(a.end_ms, b.end_ms));
  EXPECT_EQ(a.base.stats.level_hits, b.base.stats.level_hits);
  // With the journal on, every write-back completes the full pipeline.
  EXPECT_GT(a.journal.appended, 0u);
  EXPECT_EQ(a.journal.acked, a.journal.appended);
  EXPECT_EQ(a.journal.lost_unacked, 0u);
  EXPECT_EQ(b.journal.appended, 0u);  // off: nothing journaled
}

// ---- directory resync hooks ----

TEST(UlcClientResync, EvictDropsOnlyMatchingLevel) {
  UlcConfig cfg;
  cfg.capacities = {4, 6, 8};
  UlcClient client(cfg);
  for (BlockId b = 0; b < 40; ++b) client.access(b % 10);
  // Find a block the directory holds at level 1.
  BlockId victim = 0;
  bool found = false;
  for (BlockId b = 0; b < 10 && !found; ++b) {
    if (client.level_of(b) == 1) {
      victim = b;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_FALSE(client.resync_evict(victim, 2));  // wrong level: refused
  EXPECT_TRUE(client.resync_evict(victim, 1));
  EXPECT_EQ(client.level_of(victim), kLevelOut);
  EXPECT_FALSE(client.resync_evict(victim, 1));  // already gone
  EXPECT_EQ(client.stats().resync_drops, 1u);
}

TEST(UlcClientResync, WipeLevelDropsEveryEntry) {
  UlcConfig cfg;
  cfg.capacities = {4, 6, 8};
  UlcClient client(cfg);
  for (BlockId b = 0; b < 60; ++b) client.access(b % 12);
  std::size_t at_level1 = 0;
  for (BlockId b = 0; b < 12; ++b)
    if (client.level_of(b) == 1) ++at_level1;
  ASSERT_GT(at_level1, 0u);
  std::vector<BlockId> dropped;
  EXPECT_EQ(client.resync_wipe_level(1, &dropped), at_level1);
  EXPECT_EQ(dropped.size(), at_level1);
  for (BlockId b = 0; b < 12; ++b) EXPECT_NE(client.level_of(b), 1u);
  EXPECT_EQ(client.resync_wipe_level(1), 0u);  // idempotent
}

TEST(SchemeResync, CheckedResyncStaysViolationFree) {
  // Resync through the auditor: the narrated kLost events must keep the
  // shadow model in lock-step, so later accesses and the final sweep pass.
  auto src = make_zipf_source(0, 120, 0.9, true, 3);
  const Trace t = generate(*src, 4000, 4, "resync");
  CheckOptions opt;
  opt.sweep_interval = 16;
  opt.context = "scheme-resync";
  CheckedHierarchy checked(make_ulc({8, 12, 10}), opt);
  ASSERT_TRUE(checked.supports_resync());
  std::vector<std::size_t> levels;
  for (std::size_t i = 0; i < t.size(); ++i) {
    checked.access(t[i]);
    if (i == 1000 || i == 2500) {
      // Crash repair: purge every level-1 claim.
      (void)checked.resync_level(0, 1);
    }
    if (i == 2000) {
      // Single stale entry: find any block resident at level 2 and drop it.
      for (BlockId b = 0; b < 120; ++b) {
        levels.clear();
        checked.audit_resident_levels(0, b, levels);
        if (levels.size() == 1 && levels[0] == 2) {
          EXPECT_TRUE(checked.resync_drop(0, b, 2));
          levels.clear();
          checked.audit_resident_levels(0, b, levels);
          EXPECT_TRUE(levels.empty());
          break;
        }
      }
    }
  }
  ASSERT_NO_THROW(checked.final_check());
}

TEST(SchemeResync, MultiClientSharedLevelPurge) {
  CheckOptions opt;
  opt.sweep_interval = 16;
  opt.context = "multi-resync";
  CheckedHierarchy checked(make_ulc_multi(6, 18, 3), opt);
  ASSERT_TRUE(checked.supports_resync());
  auto sources = std::vector<PatternPtr>{};
  sources.push_back(make_zipf_source(0, 80, 0.9, true, 5));
  sources.push_back(make_zipf_source(0, 80, 0.8, true, 6));
  sources.push_back(make_loop_source(20, 40));
  const Trace t =
      generate_multi(std::move(sources), {1.0, 1.0, 1.0}, 6000, 11, "m");
  for (std::size_t i = 0; i < t.size(); ++i) {
    checked.access(t[i]);
    if (i == 3000) {
      const std::size_t purged = checked.resync_level(0, 1);
      EXPECT_GT(purged, 0u);
      EXPECT_EQ(checked.audit_level_size(0, 1), 0u);
    }
  }
  ASSERT_NO_THROW(checked.final_check());
}

TEST(Mutations, ResyncAmnesiaIsCaughtAsDrift) {
  // The mutant narrates the kLost (the shadow drops its copy) but forgets
  // to evict the directory entry; the next sweep sees the scheme still
  // claiming the copy -> drift.
  auto src = make_zipf_source(0, 120, 0.9, true, 3);
  const Trace t = generate(*src, 3000, 4, "amnesia");
  CheckOptions opt;
  opt.sweep_interval = 8;
  opt.context = "amnesia-test";
  CheckedHierarchy checked(make_mutant(make_ulc({8, 12, 10}), Mutation::kResyncAmnesia),
                           opt);
  std::optional<ViolationKind> kind;
  try {
    std::vector<std::size_t> levels;
    bool dropped = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      checked.access(t[i]);
      if (!dropped && i >= 1500) {
        for (BlockId b = 0; b < 120 && !dropped; ++b) {
          levels.clear();
          checked.audit_resident_levels(0, b, levels);
          if (levels.size() == 1 && levels[0] == 1) {
            (void)checked.resync_drop(0, b, 1);
            dropped = true;
          }
        }
      }
    }
    ASSERT_TRUE(dropped) << "no level-1 resident block found to drop";
    checked.final_check();
  } catch (const AuditViolation& v) {
    kind = v.kind;
  }
  ASSERT_TRUE(kind.has_value()) << "amnesia mutant went undetected";
  EXPECT_EQ(*kind, ViolationKind::kDrift);
}

}  // namespace
}  // namespace ulc
