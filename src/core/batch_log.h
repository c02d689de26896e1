#ifndef DUPLEX_CORE_BATCH_LOG_H_
#define DUPLEX_CORE_BATCH_LOG_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inverted_index.h"
#include "storage/fault_injection.h"
#include "text/batch.h"
#include "util/status.h"

namespace duplex::core {

// Write-ahead log of batch updates, making incremental index maintenance
// restartable (the paper: "the algorithms and data structures are
// constructed so that the incremental update of the index can be restarted
// if it is aborted"). Protocol:
//
//   1. log.AppendBatch(batch)          -- durable before any index I/O
//   2. index.ApplyBatchUpdate(batch)   -- buckets/directory flushed after
//   3. log.MarkApplied(batch_id)       -- commit record
//
// After a crash, RecoverInto replays the batches whose apply never
// committed (UnappliedBatches() names them); a full rebuild (ReplayInto)
// or a checkpoint plus its tail (ReplayFrom) reconstructs the index from
// scratch. Records carry an FNV-64 checksum; a torn tail (partial final
// record) is detected and ignored, matching the usual WAL recovery
// contract.
//
// The batches themselves live only in the file. Open decodes and checks
// every record once, then keeps a per-record index (id, file offset,
// length, applied) in memory; every replay reads its batches back one
// record at a time and re-verifies each checksum, so a record damaged on
// disk after Open surfaces as a typed Corruption, never as wrong postings.
//
// Batch ids are GLOBAL and monotonic for the life of the index, even
// across tail truncation: after a durable checkpoint covering batches
// [0, epoch), TruncateTo(epoch) rewrites the log to an 'E' (epoch base)
// record followed by only the surviving tail, and ids keep counting from
// where they were. base_epoch() is the id of the oldest record still in
// the log; ReplayFrom(epoch, ...) is the checkpoint-tail recovery path.
class BatchLog {
 public:
  // One logged batch as read back from the file; `counts` is always
  // populated, `docs` only when the batch was materialized. `words`
  // (parallel to `docs.entries`, possibly empty — the caller may not
  // track strings, and older records never carried them) holds the word
  // string of each entry so a replay into a fresh index can reinstate the
  // vocabulary at the recorded ids, not just the postings.
  struct LoggedBatch {
    uint64_t id = 0;
    bool materialized = false;
    text::BatchUpdate counts;
    text::InvertedBatch docs;
    std::vector<std::string> words;
  };

  // One logged compaction round ('C' record). Informational: compaction
  // never changes logical postings, so replay ignores these — recovery of
  // a crash mid-round is the ordinary full rebuild. They exist so
  // operators (duplexctl) and tests can see reclamation history in the
  // log.
  struct LoggedCompaction {
    uint64_t lists = 0;
    uint64_t blocks_reclaimed = 0;
    uint64_t postings = 0;
  };

  // Opens (creating if necessary) the log at `path` and scans it. Returns
  // Corruption only for damage before the final record; a torn tail is
  // silently truncated on the next append.
  static Result<std::unique_ptr<BatchLog>> Open(const std::string& path);

  ~BatchLog();

  BatchLog(const BatchLog&) = delete;
  BatchLog& operator=(const BatchLog&) = delete;

  // Appends a batch record; returns the assigned batch id. Durable before
  // returning: the stream is flushed and, unless set_fsync(false), pushed
  // through fdatasync so the record survives an OS crash, not just a
  // process crash.
  Result<uint64_t> AppendBatch(const text::BatchUpdate& batch);
  Result<uint64_t> AppendBatch(const text::InvertedBatch& batch);
  // Materialized append that also records each entry's word string
  // (`words[i]` names `batch.entries[i].word`). Costs log bytes but makes
  // the record self-contained: a full rebuild restores string-keyed
  // queries, not only WordId-keyed postings.
  Result<uint64_t> AppendBatch(const text::InvertedBatch& batch,
                               const std::vector<std::string>& words);

  // Appends the commit record for `batch_id`.
  Status MarkApplied(uint64_t batch_id);

  // Full commit protocol for one batch: append (durable), apply to the
  // index, flush the index's dirty cache frames (write-back pools must
  // not hold committed index writes hostage in memory), then the commit
  // record. This is the ordering diagram in DESIGN.md § Buffer pool.
  Status ApplyLogged(InvertedIndex* index, const text::BatchUpdate& batch);
  Status ApplyLogged(InvertedIndex* index, const text::InvertedBatch& batch);

  // One logged compaction round: run index->CompactOnce(), flush dirty
  // cache frames (same discipline as ApplyLogged — the rewritten chunks
  // must be on the devices before the log mentions them), then append a
  // 'C' record when the round rewrote anything. A crash anywhere inside is
  // recovered by ReplayInto exactly like a crashed batch apply, because
  // compaction is logically a no-op.
  Result<CompactionStats> CompactLogged(InvertedIndex* index);

  // Test hook: disable the per-record fdatasync (appends still fflush).
  // Durability tests count syncs(); everything else can skip the disk
  // round-trips.
  void set_fsync(bool enabled) { fsync_enabled_ = enabled; }
  bool fsync_enabled() const { return fsync_enabled_; }
  uint64_t syncs() const { return syncs_; }

  // Test hook: the next `n` appends fail their durability sync (after the
  // bytes reached the kernel), modeling a disk that accepts writes but
  // cannot promise them. The append returns IoError, but the batch is
  // kept as an UNAPPLIED entry — the same state a reopen of the file
  // would reconstruct — so later appends keep the dense id sequence and
  // recovery errs toward replaying the possibly-durable record.
  void set_fail_next_syncs(uint64_t n) { fail_next_syncs_ = n; }

  // Ids of the batches appended but never marked applied, in append
  // order.
  std::vector<uint64_t> UnappliedBatches() const;

  // Reads every retained batch with id >= from_id back from the file, in
  // id order, and hands each to `fn`. Stops at the first non-OK status
  // `fn` returns and returns it. A record whose bytes no longer match
  // their checksum is a typed Corruption; `fn` never sees it.
  Status ForEachBatch(
      uint64_t from_id,
      const std::function<Status(const LoggedBatch&)>& fn) const;

  // Replays every unapplied batch into `index` and marks it applied.
  Status RecoverInto(InvertedIndex* index);

  // Replays ALL logged batches, applied or not, into a freshly
  // constructed empty `index`, then marks everything applied. This is the
  // full-rebuild recovery path for a crash that may have left device
  // state partially written: rebuilding from nothing sidesteps "was block
  // k's write durable?" entirely. FailedPrecondition once the log has
  // been tail-truncated (base_epoch() > 0): the full history is gone,
  // and only a checkpoint + ReplayFrom can reconstruct the index.
  Status ReplayInto(InvertedIndex* index);

  // Replays every batch with id >= epoch, in id order, through `apply`
  // (applied and unapplied alike — the caller restored a checkpoint
  // covering exactly [0, epoch) into fresh structures, so the tail is
  // idempotent by construction), then marks the replayed batches
  // applied. Typed failures, never silent gaps: FailedPrecondition when
  // epoch < base_epoch() (the tail needed is already truncated away) and
  // Corruption when an unapplied batch predates `epoch` (the checkpoint
  // claims coverage the log contradicts).
  Status ReplayFrom(uint64_t epoch,
                    const std::function<Status(const LoggedBatch&)>& apply);
  // Convenience overload applying into an InvertedIndex (same per-batch
  // path as ReplayInto: apply, then flush dirty cache frames).
  Status ReplayFrom(uint64_t epoch, InvertedIndex* index);

  // Drops every record for batches with id < new_base (all of which must
  // be applied — a checkpoint can only cover committed work) by
  // rewriting the file as an 'E' base record, the surviving tail's batch
  // records copied byte for byte, and their commit records,
  // atomically: the rewrite goes to <path>.tmp, is synced, and renames
  // over the log, so a crash anywhere leaves either the old or the new
  // log, never a hybrid. Compaction 'C' records describe pre-checkpoint
  // history and are dropped. Ids keep counting from next_id().
  Status TruncateTo(uint64_t new_base);

  // Drops all records (e.g. after a checkpoint made them redundant).
  Status Truncate();

  // Arms fault injection on TruncateTo's physical steps (tmp-file chunk
  // writes, sync, rename), sharing the op counter with the checkpoint
  // pipeline's crash-point sweeps.
  void set_fault_schedule(
      std::shared_ptr<storage::FaultSchedule> schedule) {
    fault_ = std::move(schedule);
  }

  uint64_t batches_logged() const { return records_.size(); }
  uint64_t batches_applied() const { return applied_count_; }
  uint64_t batches_unapplied() const {
    return records_.size() - applied_count_;
  }
  // Id of the oldest batch still in the log (0 until a TruncateTo).
  uint64_t base_epoch() const { return base_epoch_; }
  // Id the next appended batch will get: base_epoch() + batches_logged().
  uint64_t next_id() const { return next_id_; }
  uint64_t compactions_logged() const { return compactions_.size(); }
  const LoggedCompaction& compaction(uint64_t i) const {
    return compactions_[i];
  }
  const std::string& path() const { return path_; }

 private:
  explicit BatchLog(std::string path) : path_(std::move(path)) {
    m_append_ns_ = GlobalLatency("duplex_core_wal_append_ns",
                                 "Batch-log record append latency "
                                 "(write + flush + sync)");
    m_fsync_ns_ = GlobalLatency("duplex_core_wal_fsync_ns",
                                "Batch-log fdatasync latency");
    m_replay_ns_ = GlobalLatency("duplex_core_wal_replay_ns",
                                 "Batch-log recovery/replay wall-clock");
  }

  // Where one batch record sits in the file: `length` bytes from
  // `offset`, framing and checksum included.
  struct Record {
    uint64_t id = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    bool applied = false;
  };

  Status Scan();
  Status AppendRecord(char type, const std::string& payload);
  // Commits every still-unapplied batch with id >= epoch.
  Status MarkAppliedFrom(uint64_t epoch);
  Result<uint64_t> AppendBatchRecord(const std::string& payload);
  // (Re)opens the append stream and the read descriptor on path_.
  Status OpenFiles();
  // Reads `record`'s payload back from the file, re-verifying its framing
  // and checksum; damage is a typed Corruption.
  Status ReadPayload(const Record& record, std::string* payload) const;
  // ReadPayload (into *scratch), then decode into *batch.
  Status ReadBatch(const Record& record, std::string* scratch,
                   LoggedBatch* batch) const;
  static Status ApplyOne(InvertedIndex* index, const LoggedBatch& batch);

  std::string path_;
  std::FILE* file_ = nullptr;
  int read_fd_ = -1;
  bool fsync_enabled_ = true;
  uint64_t syncs_ = 0;
  uint64_t fail_next_syncs_ = 0;
  uint64_t base_epoch_ = 0;
  uint64_t next_id_ = 0;
  uint64_t applied_count_ = 0;
  // Bytes in the file: where the next record lands.
  uint64_t end_offset_ = 0;
  std::shared_ptr<storage::FaultSchedule> fault_;
  std::vector<Record> records_;
  std::vector<LoggedCompaction> compactions_;
  LatencyHistogram* m_append_ns_ = nullptr;
  LatencyHistogram* m_fsync_ns_ = nullptr;
  LatencyHistogram* m_replay_ns_ = nullptr;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_BATCH_LOG_H_
