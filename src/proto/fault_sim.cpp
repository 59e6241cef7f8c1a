#include "proto/fault_sim.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "check/checked_hierarchy.h"
#include "hierarchy/hierarchy.h"
#include "ulc/uni_lru_stack.h"
#include "util/ensure.h"

namespace ulc {

const char* fault_phase_name(FaultPhase phase) {
  switch (phase) {
    case FaultPhase::kNormal:
      return "normal";
    case FaultPhase::kDegraded:
      return "degraded";
    case FaultPhase::kRecovered:
      return "recovered";
  }
  return "?";
}

namespace {

SchemePtr make_scheme(ProtocolScheme scheme, const std::vector<std::size_t>& caps) {
  switch (scheme) {
    case ProtocolScheme::kUlc:
      return make_ulc(caps);
    case ProtocolScheme::kUniLru:
      return make_uni_lru(caps);
    case ProtocolScheme::kIndLru:
      return make_ind_lru(caps, 1);
  }
  return nullptr;
}

// What the scheme's narration says this access intends on the wire.
struct Narration {
  bool served = false;                    // kServe of the requested block
  std::vector<std::size_t> place_levels;  // kPlace targets
  std::vector<AuditEvent> transfers;      // demote-ish events, in the legacy
                                          // simulator's (top-down) order
  std::vector<AuditEvent> evicts;         // kEvict events (no traffic)
};

Narration parse_narration(const std::vector<AuditEvent>& events, BlockId block) {
  Narration n;
  for (const AuditEvent& e : events) {
    switch (e.kind) {
      case AuditEvent::Kind::kServe:
        if (e.block == block) n.served = true;
        break;
      case AuditEvent::Kind::kPlace:
        n.place_levels.push_back(e.to);
        break;
      case AuditEvent::Kind::kDemote:
      case AuditEvent::Kind::kDemoteMerge:
      case AuditEvent::Kind::kCharge:
        n.transfers.push_back(e);
        break;
      case AuditEvent::Kind::kEvict:
        n.evicts.push_back(e);
        break;
      default:
        break;
    }
  }
  // Schemes narrate the demote cascade in physical process order — top-down,
  // the order the client issues the transfers on the wire — which is exactly
  // the order the simulator must put them on the links (the per-message loss
  // stream is order-sensitive).
  return n;
}

// The simulator's model of what one level *actually* holds, alongside the
// client-side recovery state for it.
struct LevelActual {
  std::unordered_map<BlockId, SimTime> present;  // block -> arrival time
  std::size_t wiped_through = 0;                 // crash times applied
  std::uint64_t known_epoch = 0;  // last epoch the client synced with
  LevelBreaker breaker;
  SimTime recovery_at = -1.0;     // successful probe reply in flight
  std::uint64_t recovery_epoch = 0;
};

// Outcome of one reliable fetch (request down, serve/NACK up).
struct FetchOutcome {
  bool served = false;           // data arrived within some deadline
  bool nack = false;             // level answered without the block
  SimTime at = 0.0;              // completion (reply arrival or give-up)
  std::uint64_t epoch = 0;       // epoch stamped on the reply
  std::vector<SimTime> leg_at;   // reply arrival per link (block at level l)
  SimTime source_at = 0.0;       // serve/disk completion at the source
};

}  // namespace

FaultedProtocolResult run_faulted_protocol_sim(ProtocolScheme scheme_kind,
                                               const FaultSimConfig& config,
                                               const Trace& trace) {
  const ProtocolConfig& proto = config.protocol;
  ULC_REQUIRE(!proto.caps.empty(), "protocol sim needs at least one level");
  ULC_REQUIRE(proto.links.size() + 1 == proto.caps.size(),
              "need one link per adjacent level pair");
  ULC_REQUIRE(proto.warmup_fraction >= 0.0 && proto.warmup_fraction < 1.0,
              "warmup fraction must be in [0, 1)");
  ULC_REQUIRE(config.retry.max_attempts > 0, "retry policy needs >= 1 attempt");

  const std::size_t nlevels = proto.caps.size();
  const std::size_t nlinks = proto.links.size();

  FaultedProtocolResult result;
  result.base.scheme = scheme_kind;
  result.base.stats.resize(nlevels);
  ReliabilityStats& rel = result.reliability;

  FaultPlan plan(config.faults, config.crashes);
  const bool armed = !plan.fault_free();

  // Timeline recording is read-only with respect to the simulation: every
  // event is stamped with times the run computed anyway.
  obs::TraceRecorder* rec = obs::gate(config.events);
  std::uint64_t current_access = 0;  // for stamping events from the lambdas

  std::vector<FaultyLink> links;
  links.reserve(nlinks);
  for (const LinkConfig& lc : proto.links) links.emplace_back(lc, plan, rel);

  SchemePtr inner = make_scheme(scheme_kind, proto.caps);
  ULC_REQUIRE(inner != nullptr, "unknown protocol scheme");
  std::vector<AuditEvent> sink;
  std::unique_ptr<CheckedHierarchy> checked;
  MultiLevelScheme* scheme = nullptr;
  if (config.checked) {
    CheckOptions opts;
    opts.abort_on_violation = config.abort_on_violation;
    opts.context = config.context;
    checked = std::make_unique<CheckedHierarchy>(std::move(inner), opts);
    ULC_REQUIRE(checked->event_checks_active(),
                "fault sim needs the scheme's event narration");
    scheme = checked.get();
  } else {
    scheme = inner.get();
    scheme->set_audit_sink(&sink);
  }
  const auto events = [&]() -> const std::vector<AuditEvent>& {
    return config.checked ? checked->last_events() : sink;
  };

  // Write-back journal: the scheme appends an entry per dirty block it
  // writes back; the simulator plays the storage side on a dedicated
  // channel (one disk_service_ms per block, FIFO), marking each entry
  // written and acknowledging it in append order when its write lands.
  // Deliberately off the read path and PRNG-free: with journaling on or
  // off, fault-free runs stay byte-identical to run_protocol_sim.
  WritebackJournal journal(WritebackJournal::Mode::kManual);
  if (config.journal) scheme->set_writeback_journal(&journal);
  struct QueuedWrite {
    std::uint64_t seq = 0;
    SimTime at = 0.0;  // storage completion time
  };
  std::deque<QueuedWrite> wb_queue;
  std::size_t journal_seen = 0;
  SimTime wb_busy_until = 0.0;
  // Complete every queued write that lands by `t`: mark written, then ack.
  // Entries a crash already wiped (kLost) are skipped — their data never
  // reached storage.
  const auto drain_writebacks = [&](SimTime t) {
    while (!wb_queue.empty() && wb_queue.front().at <= t) {
      const QueuedWrite w = wb_queue.front();
      wb_queue.pop_front();
      if (journal.state_of(w.seq) == JournalEntryState::kLost) continue;
      journal.mark_written(w.seq);
      journal.ack(w.seq);
    }
  };

  // Zero-load round trips for the timeout budgets. base_rtt[t] is the RTT of
  // a read served by level t (t == nlevels: the disk path); ctrl_rtt[t] the
  // RTT of a pure control exchange with level t.
  std::vector<SimTime> base_rtt(nlevels + 1, 0.0);
  std::vector<SimTime> ctrl_rtt(nlevels, 0.0);
  for (std::size_t t = 1; t <= nlevels; ++t) {
    SimTime rtt = 0.0;
    SimTime ctrl = 0.0;
    for (std::size_t l = 0; l < t && l < nlinks; ++l) {
      const SimLink link(proto.links[l]);
      rtt += 2.0 * proto.links[l].latency_ms + link.transmission_ms(kControlBytes) +
             link.transmission_ms(kBlockBytes);
      ctrl += 2.0 * (proto.links[l].latency_ms + link.transmission_ms(kControlBytes));
    }
    if (t == nlevels) rtt += proto.disk_service_ms;
    base_rtt[t] = rtt;
    if (t < nlevels) ctrl_rtt[t] = ctrl;
  }

  std::vector<LevelActual> levels(nlevels);
  SimTime disk_busy_until = 0.0;
  SimTime disk_busy_total = 0.0;

  const auto jitter = [&]() { return armed ? plan.jitter01() : 0.0; };

  const auto present_at = [&](std::size_t level, BlockId b, SimTime t) {
    const auto it = levels[level].present.find(b);
    return it != levels[level].present.end() && it->second <= t;
  };

  // Lazy crash wipes: a level restart erases every copy that had arrived
  // before the crash; copies still in flight (arrival after the crash)
  // survive and land in the freshly restarted cache.
  const auto apply_wipes = [&](SimTime now) {
    for (std::size_t l = 1; l < nlevels; ++l) {
      const std::vector<SimTime>& times = plan.crash_times(l);
      LevelActual& st = levels[l];
      while (st.wiped_through < times.size() && times[st.wiped_through] <= now) {
        const SimTime when = times[st.wiped_through];
        if (rec)
          rec->instant("crash L" + std::to_string(l), "fault", when,
                       obs::TraceRecorder::level_track(l), current_access);
        if (config.journal) {
          // Writes that completed before the crash are safely acknowledged;
          // whatever the level had not acknowledged by then is gone.
          drain_writebacks(when);
          journal.crash_wipe(l);
        }
        for (auto it = st.present.begin(); it != st.present.end();) {
          // Erase-all sweep: the surviving set is order-independent.
          if (it->second < when) {
            it = st.present.erase(it);
          } else {
            ++it;
          }
        }
        ++st.wiped_through;
      }
    }
  };

  std::vector<std::size_t> resident_scratch;
  const auto claims_level = [&](BlockId b, std::size_t l) {
    resident_scratch.clear();
    scheme->audit_resident_levels(0, b, resident_scratch);
    return std::find(resident_scratch.begin(), resident_scratch.end(), l) !=
           resident_scratch.end();
  };

  const auto resync_drop = [&](BlockId b, std::size_t l) {
    if (!scheme->supports_resync()) return;
    if (scheme->resync_drop(0, b, l)) ++rel.resync_drops;
  };

  // Resync inventory exchange: the level discards every copy the client's
  // directory no longer tracks (sorted sweep — nothing depends on hash
  // order).
  const auto inventory_sync = [&](std::size_t l, SimTime t) {
    std::vector<BlockId> keys;
    keys.reserve(levels[l].present.size());
    for (const auto& kv : levels[l].present) {
      if (kv.second <= t) keys.push_back(kv.first);
    }
    std::sort(keys.begin(), keys.end());
    for (BlockId b : keys) {
      if (!claims_level(b, l)) {
        levels[l].present.erase(b);
        ++rel.stale_copies_reclaimed;
      }
    }
  };

  // The reply's epoch stamp told the client the level restarted since it
  // last synced: purge the directory's claims for the level and run the
  // inventory exchange.
  const auto resync_after_epoch = [&](std::size_t l, std::uint64_t epoch,
                                      SimTime t) {
    if (epoch == levels[l].known_epoch) return;
    levels[l].known_epoch = epoch;
    if (scheme->supports_resync()) {
      const std::size_t purged = scheme->resync_level(0, l);
      ++rel.resync_level_purges;
      rel.resync_purged_entries += purged;
    }
    inventory_sync(l, t);
  };

  const auto send_probe = [&](std::size_t l, SimTime now) {
    levels[l].breaker.probe_sent(now, config.retry.probe_interval_ms);
    ++rel.probes;
    if (rec)
      rec->instant("probe L" + std::to_string(l), "phase", now,
                   obs::TraceRecorder::level_track(l), current_access);
    SimTime t = now;
    for (std::size_t k = 0; k < l && k < nlinks; ++k) {
      const FaultyLink::Delivery d = links[k].transfer(0, kControlBytes, t);
      if (!d.arrived) return;
      t = d.at;
    }
    if (plan.down_at(l, t)) return;  // no reply; the next probe will retry
    const std::uint64_t epoch = plan.epoch_at(l, t);
    SimTime rt = t;
    for (std::size_t k = std::min(l, nlinks); k-- > 0;) {
      const FaultyLink::Delivery d = links[k].transfer(1, kControlBytes, rt);
      if (!d.arrived) return;
      rt = d.at;
    }
    LevelActual& st = levels[l];
    if (st.recovery_at < 0.0 || rt < st.recovery_at) {
      st.recovery_at = rt;
      st.recovery_epoch = epoch;
    }
  };

  // One reliable fetch: request down to `target` (nlevels = disk), reply up,
  // bounded retries with backoff. With a fault-free plan this is exactly one
  // attempt with no deadline — the legacy simulator's arithmetic, verbatim.
  const auto fetch = [&](std::size_t target, BlockId block, SimTime issue,
                         FetchOutcome& out) {
    out = FetchOutcome{};
    const bool disk = target >= nlevels;
    const std::size_t down = std::min(target, nlinks);
    const std::size_t attempts = armed ? config.retry.max_attempts : 1;
    SimTime t_issue = issue;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      const SimTime deadline =
          armed ? t_issue + retry_timeout(config.retry,
                                          base_rtt[std::min(target, nlevels)],
                                          attempt, jitter())
                : 0.0;
      SimTime t = t_issue;
      bool alive = true;
      for (std::size_t l = 0; l < down; ++l) {
        const FaultyLink::Delivery d = links[l].transfer(0, kControlBytes, t);
        t = d.at;
        if (!d.arrived) {
          alive = false;
          break;
        }
      }
      if (alive && !disk && armed && plan.down_at(target, t)) alive = false;
      if (alive) {
        bool has = true;
        std::uint64_t epoch = 0;
        if (disk) {
          const SimTime start = std::max(t, disk_busy_until);
          disk_busy_until = start + proto.disk_service_ms;
          disk_busy_total += proto.disk_service_ms;
          t = disk_busy_until;
        } else {
          epoch = plan.epoch_at(target, t);
          has = !armed || present_at(target, block, t);
        }
        std::vector<SimTime> leg(down, 0.0);
        SimTime rt = t;
        bool reply_ok = true;
        for (std::size_t l = down; l-- > 0;) {
          const FaultyLink::Delivery d =
              links[l].transfer(1, has ? kBlockBytes : kControlBytes, rt);
          rt = d.at;
          leg[l] = rt;
          if (!d.arrived) {
            reply_ok = false;
            break;
          }
        }
        if (reply_ok) {
          if (!armed || rt <= deadline) {
            out.served = has;
            out.nack = !has;
            out.at = rt;
            out.epoch = epoch;
            out.leg_at = std::move(leg);
            out.source_at = t;
            return;
          }
          ++rel.late_replies;  // the data arrived, but past the deadline
        }
      }
      ++rel.timeouts;
      t_issue = deadline;
      if (attempt + 1 < attempts) ++rel.retries;
    }
    out.at = t_issue;  // gave up at the final deadline
  };

  // When the winning reply carried the block past level `pl`, it arrived
  // there at leg_at[pl] (the bottom level of a disk fetch sees it at the
  // disk completion itself).
  const auto plant_time = [&](std::size_t pl, const FetchOutcome& fo) {
    if (pl == 0) return fo.at;
    if (pl < fo.leg_at.size()) return fo.leg_at[pl];
    return fo.source_at;
  };

  const auto plant_copy = [&](std::size_t pl, SimTime t, BlockId b) {
    if (pl > 0 && armed && plan.down_at(pl, t)) {
      ++rel.dead_placements;
      resync_drop(b, pl);  // the client directed a placement into a dead
                           // level; forget the claim instead of leaking it
      return;
    }
    levels[pl].present[b] = t;
  };

  // One demotion transfer in the legacy order: the ULC Demote command hops
  // from the client down to the source (reliable, bounded retries), then
  // the data crosses links [from, to) (delete-after-send at the source;
  // bounded retries from the sender's buffer).
  const auto process_demote = [&](const AuditEvent& tr, SimTime at0) {
    const bool charge_only = tr.kind == AuditEvent::Kind::kCharge;
    // The sender stamps the transfer with its view of the target's epoch;
    // a receiver that restarted in the meantime refuses the cross-epoch
    // delivery (it cannot trust pre-crash directory state), closing the
    // crash-during-demotion window where stale data landed in a freshly
    // restarted cache.
    const std::uint64_t expected_epoch = levels[tr.to].known_epoch;
    SimTime at = at0;
    if (scheme_kind == ProtocolScheme::kUlc && tr.from > 0) {
      bool delivered = false;
      const std::size_t attempts = armed ? config.retry.max_attempts : 1;
      SimTime t_issue = at;
      for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
        const SimTime deadline =
            armed ? t_issue + retry_timeout(config.retry, ctrl_rtt[tr.from],
                                            attempt, jitter())
                  : 0.0;
        SimTime t = t_issue;
        bool alive = true;
        for (std::size_t l = 0; l < tr.from; ++l) {
          const FaultyLink::Delivery d = links[l].transfer(0, kControlBytes, t);
          t = d.at;
          if (!d.arrived) {
            alive = false;
            break;
          }
        }
        if (alive) {
          delivered = true;
          at = t;
          break;
        }
        ++rel.timeouts;
        t_issue = deadline;
        if (attempt + 1 < attempts) ++rel.retries;
      }
      if (!delivered) {
        // The source never heard the command: the directory moved the block
        // down, but the data stays where it was (reclaimed by the next
        // inventory exchange).
        ++rel.demote_drops;
        resync_drop(tr.block, tr.to);
        return;
      }
    }
    if (!charge_only) levels[tr.from].present.erase(tr.block);
    const SimTime demote_start = at;
    SimTime one_way = 0.0;
    for (std::size_t l = tr.from; l < tr.to && l < nlinks; ++l) {
      one_way += proto.links[l].latency_ms +
                 SimLink(proto.links[l]).transmission_ms(kBlockBytes);
    }
    const std::size_t attempts = armed ? config.retry.max_attempts : 1;
    SimTime t_issue = at;
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
      const SimTime deadline =
          armed ? t_issue + retry_timeout(config.retry, 2.0 * one_way, attempt,
                                          jitter())
                : 0.0;
      SimTime t = t_issue;
      bool alive = true;
      for (std::size_t l = tr.from; l < tr.to && l < nlinks; ++l) {
        const FaultyLink::Delivery d = links[l].transfer(0, kBlockBytes, t);
        ++result.base.stats.demotions[l];  // counted at send, like the
                                           // legacy simulator (and real
                                           // wire traffic: retries recount)
        t = d.at;
        if (!d.arrived) {
          alive = false;
          break;
        }
      }
      if (alive && armed && plan.down_at(tr.to, t)) alive = false;
      if (alive && armed && plan.epoch_at(tr.to, t) != expected_epoch) {
        ++rel.cross_epoch_drops;
        if (rec)
          rec->instant("demote cross-epoch L" + std::to_string(tr.from) +
                           "->L" + std::to_string(tr.to),
                       "fault", t, obs::TraceRecorder::level_track(tr.to),
                       current_access, static_cast<std::int64_t>(tr.block));
        if (!charge_only) resync_drop(tr.block, tr.to);
        return;
      }
      if (alive) {
        if (!charge_only) levels[tr.to].present[tr.block] = t;
        if (rec)
          rec->span("demote L" + std::to_string(tr.from) + "->L" +
                        std::to_string(tr.to),
                    "demote", demote_start, t - demote_start,
                    obs::TraceRecorder::level_track(tr.from), current_access,
                    static_cast<std::int64_t>(tr.block));
        return;
      }
      ++rel.timeouts;
      t_issue = deadline;
      if (attempt + 1 < attempts) ++rel.retries;
    }
    ++rel.demote_drops;
    if (rec)
      rec->instant("demote lost L" + std::to_string(tr.from) + "->L" +
                       std::to_string(tr.to),
                   "fault", demote_start,
                   obs::TraceRecorder::level_track(tr.from), current_access,
                   static_cast<std::int64_t>(tr.block));
    if (!charge_only) resync_drop(tr.block, tr.to);
  };

  // ---- main closed loop (structure mirrors run_protocol_sim) ----
  const std::size_t warmup = static_cast<std::size_t>(
      proto.warmup_fraction * static_cast<double>(trace.size()));
  SimTime now = 0.0;
  SimTime measure_start = 0.0;
  std::vector<SimTime> busy_down_at_start(nlinks, 0.0);
  std::vector<SimTime> busy_up_at_start(nlinks, 0.0);
  SimTime disk_busy_at_start = 0.0;
  bool ever_tripped = false;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    ULC_REQUIRE(trace[i].client == 0, "fault sim takes a single-client trace");
    if (i == warmup) {
      result.base.stats.clear();
      result.base.response_hist.clear();
      for (obs::LatencyHistogram& h : result.phase_hist) h.clear();
      result.phase_references = {};
      measure_start = now;
      for (std::size_t l = 0; l < nlinks; ++l) {
        busy_down_at_start[l] = links[l].raw().busy_ms(0);
        busy_up_at_start[l] = links[l].raw().busy_ms(1);
      }
      disk_busy_at_start = disk_busy_total;
    }

    // Storage side of the journal: complete every write-back due by now.
    if (config.journal) drain_writebacks(now);

    // Recovery machinery (all of it no-ops on a fault-free plan).
    FaultPhase phase = FaultPhase::kNormal;
    if (armed) {
      apply_wipes(now);
      bool any_open = false;
      for (std::size_t l = 1; l < nlevels; ++l) {
        LevelActual& st = levels[l];
        if (st.breaker.open() && st.recovery_at >= 0.0 && st.recovery_at <= now) {
          st.breaker.close();
          ++rel.recoveries;
          if (rec)
            rec->instant("breaker close L" + std::to_string(l), "phase",
                         st.recovery_at, obs::TraceRecorder::level_track(l), i);
          resync_after_epoch(l, st.recovery_epoch, now);
          inventory_sync(l, now);  // also reclaims pure-loss stale copies
          st.recovery_at = -1.0;
        }
        if (st.breaker.probe_due(now)) send_probe(l, now);
        any_open = any_open || st.breaker.open();
      }
      phase = any_open ? FaultPhase::kDegraded
                       : (ever_tripped ? FaultPhase::kRecovered
                                       : FaultPhase::kNormal);
    }
    const std::size_t phase_idx = static_cast<std::size_t>(phase);
    current_access = i;

    ++result.base.stats.references;
    ++result.phase_references[phase_idx];

    const BlockId block = trace[i].block;
    const HierarchyStats pre = scheme->stats();
    // The unchecked path owns the sink: drop the previous access's narration
    // (and any resync kLost events emitted since) before this access writes
    // its own. CheckedHierarchy clears its internal buffer itself.
    sink.clear();
    scheme->access(trace[i]);
    const HierarchyStats& post = scheme->stats();
    std::size_t claimed = kLevelOut;
    for (std::size_t l = 0; l < nlevels; ++l) {
      if (post.level_hits[l] != pre.level_hits[l]) {
        claimed = l;
        break;
      }
    }
    const Narration narr = parse_narration(events(), block);

    // --- the read path ---
    SimTime completion = now;
    bool to_disk = false;       // take the disk path
    bool heal_plant = false;    // plant per directory claims, not narration
    SimTime disk_issue = now;
    FetchOutcome fo;

    if (claimed == 0) {
      if (armed && !present_at(0, block, now)) {
        ++rel.stale_reads;  // the client's own copy was lost earlier
        if (phase == FaultPhase::kRecovered) ++rel.post_recovery_stale_reads;
        to_disk = true;
        heal_plant = true;
      } else {
        ++result.base.stats.level_hits[0];
      }
    } else if (claimed != kLevelOut) {
      if (armed && levels[claimed].breaker.open()) {
        ++rel.bypassed_reads;  // degraded mode: route around the dead level
        to_disk = true;
        heal_plant = true;
        resync_drop(block, claimed);
      } else {
        fetch(claimed, block, now, fo);
        if (fo.served) {
          completion = fo.at;
          ++result.base.stats.level_hits[claimed];
          if (armed) resync_after_epoch(claimed, fo.epoch, fo.at);
          if (narr.served) levels[claimed].present.erase(block);
          for (std::size_t pl : narr.place_levels)
            plant_copy(pl, plant_time(pl, fo), block);
        } else if (fo.nack) {
          ++rel.nacks;
          ++rel.stale_reads;
          if (phase == FaultPhase::kRecovered) ++rel.post_recovery_stale_reads;
          const std::uint64_t before_epoch = levels[claimed].known_epoch;
          resync_after_epoch(claimed, fo.epoch, fo.at);
          if (fo.epoch == before_epoch) resync_drop(block, claimed);
          to_disk = true;
          heal_plant = true;
          disk_issue = fo.at;
        } else {
          // Retry budget exhausted: trip the breaker, enter degraded mode.
          levels[claimed].breaker.trip(fo.at);
          ever_tripped = true;
          ++rel.breaker_trips;
          if (rec)
            rec->instant("breaker trip L" + std::to_string(claimed), "phase",
                         fo.at, obs::TraceRecorder::level_track(claimed), i);
          to_disk = true;
          heal_plant = true;
          disk_issue = fo.at;
        }
      }
    } else {
      to_disk = true;  // the ordinary miss path
    }

    if (to_disk) {
      fetch(nlevels, block, disk_issue, fo);
      ++result.base.stats.misses;
      if (fo.served) {
        completion = fo.at;
        if (heal_plant) {
          // The directory (post-access, post-resync) is the contract of
          // where the block should now live; the disk reply passed every
          // level, so replant it there.
          resident_scratch.clear();
          scheme->audit_resident_levels(0, block, resident_scratch);
          std::sort(resident_scratch.begin(), resident_scratch.end());
          for (std::size_t pl : resident_scratch)
            plant_copy(pl, plant_time(pl, fo), block);
        } else {
          for (std::size_t pl : narr.place_levels)
            plant_copy(pl, plant_time(pl, fo), block);
        }
      } else {
        // Even the disk path exhausted its budget: the read fails. Nothing
        // was cached anywhere, so drop the directory's placement claims.
        ++rel.failed_reads;
        completion = fo.at;
        for (std::size_t pl : narr.place_levels) resync_drop(block, pl);
      }
    }

    result.base.response_hist.record(completion - now);
    result.phase_hist[phase_idx].record(completion - now);
    if (rec) {
      const std::string name =
          to_disk ? std::string("miss") : "hit L" + std::to_string(claimed);
      rec->span(name, fault_phase_name(phase), now, completion - now,
                obs::TraceRecorder::kClientTrack, i,
                static_cast<std::int64_t>(block));
    }

    // --- demotion transfers, issued after the reference completes ---
    for (const AuditEvent& tr : narr.transfers) process_demote(tr, completion);
    for (const AuditEvent& ev : narr.evicts)
      levels[ev.from].present.erase(ev.block);

    // Schedule the storage writes for every journal entry this access
    // appended: FIFO on the dedicated write-back channel, one service time
    // per block.
    if (config.journal) {
      const std::vector<JournalEntry>& entries = journal.entries();
      for (; journal_seen < entries.size(); ++journal_seen) {
        const SimTime t_write =
            std::max(completion, wb_busy_until) + proto.disk_service_ms;
        wb_busy_until = t_write;
        wb_queue.push_back(QueuedWrite{entries[journal_seen].seq, t_write});
      }
    }

    now = completion;
  }

  // Let the write-back channel finish: every scheduled write that no crash
  // wiped completes and is acknowledged.
  if (config.journal) drain_writebacks(wb_busy_until);
  result.journal = journal.stats();

  if (checked != nullptr) checked->final_check();
  // Detach before the journal (declared after the scheme) goes away.
  if (config.journal) scheme->set_writeback_journal(nullptr);

  const SimTime elapsed = std::max(now - measure_start, 1e-9);
  result.base.elapsed_ms = elapsed;
  result.base.link_down_utilization.resize(nlinks);
  result.base.link_up_utilization.resize(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    result.base.link_down_utilization[l] =
        (links[l].raw().busy_ms(0) - busy_down_at_start[l]) / elapsed;
    result.base.link_up_utilization[l] =
        (links[l].raw().busy_ms(1) - busy_up_at_start[l]) / elapsed;
  }
  result.base.disk_utilization = (disk_busy_total - disk_busy_at_start) / elapsed;
  result.base.analytic_t_ave_ms =
      protocol_analytic_t_ave(proto, result.base.stats);
  result.measure_start_ms = measure_start;
  result.end_ms = now;
  result.base.response_ms = result.base.response_hist.moments();
  for (std::size_t p = 0; p < kFaultPhases; ++p)
    result.phase_response_ms[p] = result.phase_hist[p].moments();
  return result;
}

void publish_fault_metrics(obs::MetricsRegistry& metrics,
                           const FaultedProtocolResult& result) {
  const JournalStats& js = result.journal;
  metrics.add_counter("durability.writebacks_journaled", js.appended);
  metrics.add_counter("durability.writebacks_acked", js.acked);
  metrics.add_counter("durability.lost_unacked", js.lost_unacked);
  metrics.add_counter("durability.lost_unacked_bytes", js.lost_unacked_bytes);
  metrics.add_counter("durability.lost_acked", js.lost_acked);
  metrics.add_counter("durability.dirty_lost", js.dirty_lost);
  metrics.add_counter("durability.dirty_lost_bytes", js.dirty_lost_bytes);
  const ReliabilityStats& rs = result.reliability;
  metrics.add_counter("staleness.stale_reads", rs.stale_reads);
  metrics.add_counter("staleness.post_recovery_stale_reads",
                      rs.post_recovery_stale_reads);
  metrics.add_counter("staleness.cross_epoch_drops", rs.cross_epoch_drops);
}

}  // namespace ulc
