// The single owner of a scheme's dirty data (paper §5: a dirty block leaving
// the hierarchy costs one disk write).
//
// Every scheme that accepts writes holds one DirtyLedger. The ledger keeps
// the dirty map private and is the only code that can mark a block dirty,
// write it back, write it straight through, or record it lost. Each
// write-back is counted, narrated as kWriteback for the shadow auditor and
// appended to the installed journal in one place. No scheme can therefore
// drop a dirty marking without a write-back or a recorded loss: the bug
// class is unwritable, not merely linted.
//
// Header-only and non-virtual: write_back() on a clean block is one FlatMap
// probe, so the replay hot path pays nothing for the bookkeeping.
#pragma once

#include "hierarchy/hierarchy.h"
#include "util/flat_hash.h"

namespace ulc {

class DirtyLedger {
 public:
  // `owner` supplies the audit sink and journal as currently installed;
  // `stats` receives the write-back count. Both must outlive the ledger.
  DirtyLedger(const MultiLevelScheme& owner, HierarchyStats& stats)
      : owner_(owner), stats_(stats) {}

  // A write request: `block` now holds `size` units of unwritten data.
  void mark(BlockId block, SizeUnits size) { dirty_.put(block, size); }

  // `block`'s cached copy leaves level `from`. If it is dirty, writes it
  // back at its written size; a clean block costs one probe.
  void write_back(BlockId block, std::size_t from) {
    const SizeUnits* size = dirty_.find(block);
    if (size == nullptr) return;
    const SizeUnits bytes = *size;
    dirty_.erase(block);
    emit_write_back(block, from, bytes);
  }

  // A write the hierarchy will not cache goes straight through to disk from
  // the client. The freshest data is on disk now, so any older dirty marking
  // (a stale copy another client parked lower down) is superseded — writing
  // it back later would clobber this newer version.
  void write_through(BlockId block, SizeUnits size) {
    dirty_.erase(block);
    emit_write_back(block, 0, size);
  }

  // Directory resync found `block`'s copy at `level` gone: any dirty data it
  // held is reported to the journal as lost, never written back.
  void record_loss(BlockId block, std::size_t level) {
    const SizeUnits* size = dirty_.find(block);
    if (size == nullptr) return;
    if (owner_.journal_ != nullptr)
      owner_.journal_->record_loss(block, level, *size);
    dirty_.erase(block);
  }

  void prefetch(BlockId block) const { dirty_.prefetch(block); }

 private:
  void emit_write_back(BlockId block, std::size_t from, SizeUnits size) {
    ++stats_.writebacks;
    owner_.audit_emit(AuditEvent::Kind::kWriteback, block, from, kAuditNoLevel,
                      0, false, size);
    if (owner_.journal_ != nullptr) owner_.journal_->append(block, from, size);
  }

  const MultiLevelScheme& owner_;
  HierarchyStats& stats_;
  FlatMap<BlockId, SizeUnits> dirty_;  // dirty block -> written size
};

}  // namespace ulc
