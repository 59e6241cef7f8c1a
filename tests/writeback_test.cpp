// Write-request handling: placement is identical to reads (paper §5), but
// dirty blocks leaving the hierarchy must be written back to disk.
#include <gtest/gtest.h>

#include <functional>

#include "hierarchy/dirty_ledger.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/runner.h"
#include "proto/journal.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "util/prng.h"
#include "workloads/synthetic.h"

namespace ulc {
namespace {

TEST(Writes, WithWritesMarksRequestedFraction) {
  auto src = make_uniform_source(0, 100);
  const Trace t = with_writes(generate(*src, 20000, 1, "u"), 0.3, 7);
  const TraceStats s = compute_stats(t);
  EXPECT_NEAR(static_cast<double>(s.writes) / 20000.0, 0.3, 0.02);
  // Deterministic.
  const Trace t2 = with_writes(generate(*src, 20000, 1, "u"), 0.3, 7);
  for (std::size_t i = 0; i < t.size(); i += 333) EXPECT_EQ(t[i], t2[i]);
}

TEST(Writes, TraceIoRoundTripsOps) {
  Trace t("ops");
  t.add(1, 0, Op::kRead);
  t.add(2, 1, Op::kWrite);
  t.add(3, 0, Op::kWrite);
  const std::string text = ::testing::TempDir() + "/ulc_ops.txt";
  const std::string bin = ::testing::TempDir() + "/ulc_ops.bin";
  std::string err;
  ASSERT_TRUE(save_trace_text(t, text, &err)) << err;
  ASSERT_TRUE(save_trace_binary(t, bin, &err)) << err;
  for (const std::string& path : {text, bin}) {
    auto loaded = path == text ? load_trace_text(path, &err)
                               : load_trace_binary(path, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    ASSERT_EQ(loaded->size(), 3u);
    EXPECT_EQ((*loaded)[0].op, Op::kRead);
    EXPECT_EQ((*loaded)[1].op, Op::kWrite);
    EXPECT_EQ((*loaded)[1].client, 1u);
    EXPECT_EQ((*loaded)[2].op, Op::kWrite);
  }
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(Writeback, UniLruWritesBackDirtyEvictions) {
  // All-write loop larger than the aggregate: every eviction is dirty.
  auto src = make_loop_source(0, 300);
  const Trace t = with_writes(generate(*src, 10000, 1, "loop"), 1.0, 3);
  auto uni = make_uni_lru({100, 100});
  for (const Request& r : t) uni->access(r);
  const HierarchyStats& s = uni->stats();
  // Once warm, each miss evicts one dirty block.
  EXPECT_GT(s.writebacks, s.misses - 400);
  EXPECT_LE(s.writebacks, s.misses);
}

TEST(Writeback, CleanTrafficWritesNothing) {
  auto src = make_loop_source(0, 300);
  const Trace t = generate(*src, 10000, 1, "loop");  // all reads
  auto uni = make_uni_lru({100, 100});
  auto ulc = make_ulc({100, 100});
  for (const Request& r : t) {
    uni->access(r);
    ulc->access(r);
  }
  EXPECT_EQ(uni->stats().writebacks, 0u);
  EXPECT_EQ(ulc->stats().writebacks, 0u);
}

TEST(Writeback, UlcUncachedWritesGoStraightToDisk) {
  // Fill the hierarchy, then write to fresh (never-cached) blocks: ULC gives
  // them L_out status, so every such write is an immediate write-through.
  auto warm = make_loop_source(0, 20);
  Trace t("w");
  {
    Rng rng(1);
    for (int i = 0; i < 40; ++i) t.add(warm->next(rng), 0, Op::kRead);
    for (BlockId b = 1000; b < 1050; ++b) t.add(b, 0, Op::kWrite);
  }
  auto ulc = make_ulc({10, 10});
  for (const Request& r : t) ulc->access(r);
  EXPECT_EQ(ulc->stats().writebacks, 50u);
}

TEST(Writeback, UlcDirtyDiscardIsWrittenBack) {
  // Mixed load with writes over a churning working set: discarded-dirty
  // blocks must be written back; total writebacks never exceed writes.
  auto src = make_zipf_source(0, 400, 0.8, true, 5);
  const Trace t = with_writes(generate(*src, 30000, 7, "z"), 0.4, 9);
  auto ulc = make_ulc({40, 40});
  for (const Request& r : t) ulc->access(r);
  const HierarchyStats& s = ulc->stats();
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_LE(s.writebacks, compute_stats(t).writes);
}

TEST(Writeback, ReloadSchemeWritesBackBeforeDroppingDirty) {
  // Under eviction-based placement a dirty block cannot be silently dropped
  // and reloaded (the disk copy is stale): crossings of dirty blocks add
  // writebacks on top of uniLRU's.
  auto src = make_loop_source(0, 150);
  const Trace t = with_writes(generate(*src, 20000, 1, "loop"), 1.0, 11);
  auto reload = make_reload_uni_lru({100, 100});
  auto uni = make_uni_lru({100, 100});
  for (const Request& r : t) {
    reload->access(r);
    uni->access(r);
  }
  EXPECT_GT(reload->stats().writebacks, uni->stats().writebacks);
}

TEST(Writeback, CostModelReportsWritebackDiskTime) {
  HierarchyStats s;
  s.resize(2);
  s.references = 100;
  s.level_hits = {60, 20};
  s.misses = 20;
  s.writebacks = 10;
  const CostModel m{{1.0, 10.0}};
  const AccessTimeBreakdown b = compute_access_time(s, m);
  EXPECT_DOUBLE_EQ(b.writeback_disk_ms, 0.1 * 10.0);
  // Off the critical path: not part of total().
  EXPECT_DOUBLE_EQ(b.total(),
                   b.hit_component + b.miss_component + b.demotion_component);
}

TEST(Writeback, MultiClientUlcServerEvictions) {
  // Two clients writing over sets larger than client+server: gLRU evictions
  // of dirty blocks must be written back.
  std::vector<PatternPtr> sources;
  sources.push_back(make_zipf_source(0, 800, 0.7, true, 3));
  sources.push_back(make_zipf_source(10000, 800, 0.7, true, 5));
  Trace t = generate_multi(std::move(sources), {1.0, 1.0}, 30000, 13, "mw");
  t = with_writes(t, 0.5, 15);
  auto scheme = make_ulc_multi(32, 128, 2);
  for (const Request& r : t) scheme->access(r);
  EXPECT_GT(scheme->stats().writebacks, 0u);
}

// ---- Write-back journal: epoch-stamped append/write/ack lifecycle ----

TEST(Journal, SynchronousModeAcksInAppendOrder) {
  WritebackJournal j;  // synchronous: append implies written + acked
  const std::uint64_t s1 = j.append(7, 0, 4);
  const std::uint64_t s2 = j.append(9, 1, 1);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.state_of(s2), JournalEntryState::kAcked);
  EXPECT_EQ(j.stats().appended, 2u);
  EXPECT_EQ(j.stats().appended_bytes, 5u);
  EXPECT_EQ(j.stats().acked, 2u);
  EXPECT_EQ(j.pending(), 0u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
  const auto replay = j.replay();
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].seq, s1);
  EXPECT_EQ(replay[1].seq, s2);
}

TEST(Journal, ManualModeTracksTheAckPipeline) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 2);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kPending);
  EXPECT_EQ(j.pending(), 1u);
  j.mark_written(s1);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kWritten);
  j.ack(s1);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.pending(), 0u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
}

TEST(Journal, AckOfAnUnwrittenEntryViolatesTheLaw) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 1);
  j.ack(s1);  // never marked written
  EXPECT_EQ(j.stats().ack_before_write, 1u);
  std::string why;
  EXPECT_FALSE(j.laws_hold(why));
  EXPECT_NE(why.find("before"), std::string::npos);
}

TEST(Journal, OutOfOrderAcksViolateThePrefixLaw) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 0, 1);
  const std::uint64_t s2 = j.append(9, 0, 1);
  j.mark_written(s1);
  j.mark_written(s2);
  j.ack(s2);
  j.ack(s1);  // acked behind an already-acked later entry
  EXPECT_EQ(j.stats().replay_reorders, 1u);
  std::string why;
  EXPECT_FALSE(j.laws_hold(why));
}

TEST(Journal, CrashWipesUnackedEntriesAndBumpsTheEpoch) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  const std::uint64_t s1 = j.append(7, 1, 3);
  const std::uint64_t s2 = j.append(9, 1, 2);
  const std::uint64_t s3 = j.append(11, 0, 1);  // another level: survives
  j.mark_written(s1);
  j.ack(s1);
  EXPECT_EQ(j.epoch(), 0u);
  const auto wiped = j.crash_wipe(1);
  EXPECT_EQ(wiped.entries, 1u);  // s2 only: s1 was already acked
  EXPECT_EQ(wiped.bytes, 2u);
  EXPECT_EQ(j.epoch(), 1u);
  EXPECT_EQ(j.state_of(s1), JournalEntryState::kAcked);
  EXPECT_EQ(j.state_of(s2), JournalEntryState::kLost);
  EXPECT_EQ(j.state_of(s3), JournalEntryState::kPending);
  EXPECT_EQ(j.stats().lost_unacked, 1u);
  EXPECT_EQ(j.stats().lost_unacked_bytes, 2u);
  EXPECT_EQ(j.stats().lost_acked, 0u);
  // An acknowledged write is never lost: the laws still hold after a crash.
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;
  // Replay returns exactly the acknowledged prefix, in ack order.
  const auto replay = j.replay();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, s1);
  // New appends carry the post-crash epoch.
  const std::uint64_t s4 = j.append(13, 1, 1);
  EXPECT_EQ(j.entries()[s4 - 1].epoch, 1u);
}

TEST(Journal, RecordLossCountsDirtyDataLostOutsideThePipeline) {
  WritebackJournal j(WritebackJournal::Mode::kManual);
  j.record_loss(5, 0, 3);
  EXPECT_EQ(j.stats().dirty_lost, 1u);
  EXPECT_EQ(j.stats().dirty_lost_bytes, 3u);
  std::string why;
  EXPECT_TRUE(j.laws_hold(why)) << why;  // a narrated loss is not a law break
}

TEST(Journal, SchemeWritebacksAllReachTheJournal) {
  // Every scheme's write-back counter must equal its journal appends, with
  // byte-accurate sizes, across the whole family.
  auto src = make_zipf_source(0, 400, 0.8, true, 5);
  const Trace t = with_writes(generate(*src, 20000, 7, "z"), 0.4, 9);
  std::vector<SchemePtr> schemes;
  schemes.push_back(make_uni_lru({40, 40}));
  schemes.push_back(make_ulc({40, 40}));
  schemes.push_back(make_ind_lru({40, 40}));
  schemes.push_back(make_reload_uni_lru({40, 40}));
  schemes.push_back(make_uni_lru_multi(40, 80, 1, UniLruInsertion::kMru));
  schemes.push_back(make_ulc_multi(40, 80, 1));
  schemes.push_back(make_ulc_multi_three(32, 48, 64, 1));
  schemes.push_back(make_mq_hierarchy(40, 80, 1));
  for (SchemePtr& s : schemes) {
    WritebackJournal j;
    s->set_writeback_journal(&j);
    for (const Request& r : t) s->access(r);
    EXPECT_EQ(j.stats().appended, s->stats().writebacks) << s->name();
    EXPECT_EQ(j.stats().acked, j.stats().appended) << s->name();
    EXPECT_GT(j.stats().appended, 0u) << s->name();
    std::string why;
    EXPECT_TRUE(j.laws_hold(why)) << s->name() << ": " << why;
  }
}

// ---- The dirty-data contract, pinned across every dirty-tracking scheme ----

struct DirtyCase {
  const char* label;
  std::function<SchemePtr()> make;
  // Levels a resync can find the dirty copy at (ULC family only; empty for
  // schemes without a client directory).
  std::vector<std::size_t> resync_levels;
};

std::vector<DirtyCase> dirty_cases() {
  return {
      {"indLRU", [] { return make_ind_lru({8, 8}); }, {}},
      {"LRU+MQ", [] { return make_mq_hierarchy(8, 8, 1); }, {}},
      {"reloadLRU", [] { return make_reload_uni_lru({8, 8}); }, {}},
      {"uniLRU", [] { return make_uni_lru({8, 8}); }, {}},
      {"uniLRU-multi",
       [] { return make_uni_lru_multi(8, 8, 1, UniLruInsertion::kMru); }, {}},
      {"ULC", [] { return make_ulc({8, 8}); }, {0, 1}},
      {"ULC-multi", [] { return make_ulc_multi(8, 8, 1); }, {0, 1}},
      {"ULC-multi3",
       [] { return make_ulc_multi_three(8, 8, 8, 1); }, {0, 1, 2}},
  };
}

constexpr BlockId kDirtyBlock = 7;
constexpr SizeUnits kDirtySize = 3;

// A scheme wired to an audit sink and a synchronous journal.
struct Harness {
  SchemePtr scheme;
  std::vector<AuditEvent> events;
  WritebackJournal journal;

  explicit Harness(const DirtyCase& c) : scheme(c.make()) {
    scheme->set_audit_sink(&events);
    scheme->set_writeback_journal(&journal);
  }

  void write_dirty_block() {
    scheme->access(Request{kDirtyBlock, 0, Op::kWrite, kDirtySize});
  }
  void read(BlockId b) { scheme->access(Request{b, 0, Op::kRead, 1}); }
  // Clean traffic: a loop over blocks the dirty block never shares, several
  // times the hierarchy's capacity, repeated so recency-ranked schemes keep
  // moving blocks down.
  void churn() {
    for (int pass = 0; pass < 4; ++pass)
      for (BlockId b = 100; b < 160; ++b) read(b);
  }
  std::vector<std::size_t> levels_of(BlockId b) const {
    std::vector<std::size_t> out;
    scheme->audit_resident_levels(0, b, out);
    return out;
  }
  std::size_t count(AuditEvent::Kind kind) const {
    std::size_t n = 0;
    for (const AuditEvent& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }
};

TEST(DirtyContract, DirtyBlockLeavesWithExactlyOneWriteback) {
  for (const DirtyCase& c : dirty_cases()) {
    SCOPED_TRACE(c.label);
    Harness h(c);
    h.write_dirty_block();
    h.churn();
    EXPECT_TRUE(h.levels_of(kDirtyBlock).empty()) << "dirty block never left";
    // One kWriteback narration and one journal append, both for the dirty
    // block and both carrying its written size; the clean loop adds neither.
    ASSERT_EQ(h.count(AuditEvent::Kind::kWriteback), 1u);
    for (const AuditEvent& e : h.events) {
      if (e.kind != AuditEvent::Kind::kWriteback) continue;
      EXPECT_EQ(e.block, kDirtyBlock);
      EXPECT_EQ(e.size, kDirtySize);
    }
    ASSERT_EQ(h.journal.entries().size(), 1u);
    EXPECT_EQ(h.journal.entries()[0].block, kDirtyBlock);
    EXPECT_EQ(h.journal.entries()[0].size, kDirtySize);
    EXPECT_EQ(h.scheme->stats().writebacks, 1u);
    EXPECT_EQ(h.journal.stats().dirty_lost, 0u);
  }
}

TEST(DirtyContract, CleanBlocksLeaveWithoutWriteback) {
  for (const DirtyCase& c : dirty_cases()) {
    SCOPED_TRACE(c.label);
    Harness h(c);
    h.read(kDirtyBlock);
    h.churn();
    EXPECT_EQ(h.count(AuditEvent::Kind::kWriteback), 0u);
    EXPECT_EQ(h.journal.stats().appended, 0u);
    EXPECT_EQ(h.scheme->stats().writebacks, 0u);
  }
}

// Writes the dirty block, then loops over hot blocks — enough to fill the
// levels above `level` (8 units each), too few to push the dirty block
// below it — until the block's topmost copy sits at `level`.
bool drive_dirty_block_to(Harness& h, std::size_t level) {
  h.write_dirty_block();
  const BlockId hot = level == 0 ? 1 : 6 + 8 * (level - 1);
  for (BlockId i = 0; i < 200; ++i) {
    const std::vector<std::size_t> at = h.levels_of(kDirtyBlock);
    if (!at.empty() && at.front() == level) return true;
    h.read(1000 + i % hot);
  }
  return false;
}

// Resync destroys a dirty copy without writing it back: the journal counts
// a loss of the written size, never an append, and the dirty marking is
// gone for good — re-reading the block and pushing it out again must not
// write it back.
void expect_lost_not_written(Harness& h, std::size_t level) {
  SCOPED_TRACE(::testing::Message() << "level " << level);
  EXPECT_EQ(h.journal.stats().dirty_lost, 1u);
  EXPECT_EQ(h.journal.stats().dirty_lost_bytes, kDirtySize);
  h.scheme->access(Request{kDirtyBlock, 0, Op::kRead, kDirtySize});
  h.churn();
  EXPECT_TRUE(h.levels_of(kDirtyBlock).empty());
  EXPECT_EQ(h.count(AuditEvent::Kind::kWriteback), 0u);
  EXPECT_EQ(h.journal.stats().appended, 0u);
  EXPECT_EQ(h.scheme->stats().writebacks, 0u);
}

TEST(DirtyContract, ResyncDropCountsDirtyLossNotWriteback) {
  for (const DirtyCase& c : dirty_cases()) {
    SCOPED_TRACE(c.label);
    for (const std::size_t level : c.resync_levels) {
      Harness h(c);
      ASSERT_TRUE(drive_dirty_block_to(h, level)) << "level " << level;
      ASSERT_TRUE(h.scheme->resync_drop(0, kDirtyBlock, level))
          << "level " << level;
      EXPECT_EQ(h.count(AuditEvent::Kind::kLost), 1u) << "level " << level;
      expect_lost_not_written(h, level);
    }
  }
}

TEST(DirtyContract, ResyncLevelCountsDirtyLossNotWriteback) {
  for (const DirtyCase& c : dirty_cases()) {
    SCOPED_TRACE(c.label);
    for (const std::size_t level : c.resync_levels) {
      Harness h(c);
      ASSERT_TRUE(drive_dirty_block_to(h, level)) << "level " << level;
      EXPECT_GE(h.scheme->resync_level(0, level), 1u) << "level " << level;
      expect_lost_not_written(h, level);
    }
  }
}

// The ledger on its own, outside any scheme's eviction path. Any scheme can
// stand in as the owner: the ledger only borrows its audit sink and journal.
struct LedgerHarness {
  SchemePtr owner = make_uni_lru({4, 4});
  std::vector<AuditEvent> events;
  WritebackJournal journal;
  HierarchyStats stats;
  DirtyLedger ledger{*owner, stats};

  LedgerHarness() {
    owner->set_audit_sink(&events);
    owner->set_writeback_journal(&journal);
  }
};

TEST(DirtyLedger, RemarkedBlockWritesBackOnceAtItsLatestSize) {
  LedgerHarness h;
  h.ledger.mark(7, 2);
  h.ledger.mark(7, 5);
  h.ledger.write_back(7, 1);
  h.ledger.write_back(7, 1);  // already clean: one probe, nothing emitted
  h.ledger.write_back(8, 0);  // never dirty
  EXPECT_EQ(h.stats.writebacks, 1u);
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].kind, AuditEvent::Kind::kWriteback);
  EXPECT_EQ(h.events[0].block, 7u);
  EXPECT_EQ(h.events[0].from, 1u);
  EXPECT_EQ(h.events[0].size, 5u);
  ASSERT_EQ(h.journal.entries().size(), 1u);
  EXPECT_EQ(h.journal.entries()[0].level, 1u);
  EXPECT_EQ(h.journal.entries()[0].size, 5u);
}

TEST(DirtyLedger, WriteThroughSupersedesAnOlderDirtyMarking) {
  LedgerHarness h;
  h.ledger.mark(7, 2);
  h.ledger.write_through(7, 3);
  // The stale copy leaving later must not clobber the newer on-disk data.
  h.ledger.write_back(7, 1);
  EXPECT_EQ(h.stats.writebacks, 1u);
  ASSERT_EQ(h.journal.entries().size(), 1u);
  EXPECT_EQ(h.journal.entries()[0].block, 7u);
  EXPECT_EQ(h.journal.entries()[0].level, 0u);
  EXPECT_EQ(h.journal.entries()[0].size, 3u);
}

TEST(DirtyLedger, RecordLossForgetsTheMarkingEvenWithoutAJournal) {
  LedgerHarness h;
  h.ledger.record_loss(7, 1);  // clean block: no loss to report
  EXPECT_EQ(h.journal.stats().dirty_lost, 0u);
  h.ledger.mark(7, 4);
  h.ledger.record_loss(7, 1);
  EXPECT_EQ(h.journal.stats().dirty_lost, 1u);
  EXPECT_EQ(h.journal.stats().dirty_lost_bytes, 4u);
  // With no journal installed the loss still erases the marking.
  h.owner->set_writeback_journal(nullptr);
  h.ledger.mark(8, 1);
  h.ledger.record_loss(8, 0);
  h.ledger.write_back(7, 1);
  h.ledger.write_back(8, 0);
  EXPECT_EQ(h.stats.writebacks, 0u);
  EXPECT_TRUE(h.events.empty());
  EXPECT_EQ(h.journal.stats().appended, 0u);
  EXPECT_EQ(h.journal.stats().dirty_lost, 1u);
}

}  // namespace
}  // namespace ulc
