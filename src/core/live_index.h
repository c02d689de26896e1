#ifndef DUPLEX_CORE_LIVE_INDEX_H_
#define DUPLEX_CORE_LIVE_INDEX_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/delta_index.h"
#include "core/merging_reader.h"
#include "core/sharded_index.h"
#include "util/metrics.h"
#include "util/status.h"

namespace duplex::core {

// The immediate-visibility ingest coordinator: overlays an in-memory
// DeltaIndex on the on-disk ShardedIndex so a live-submitted document
// answers queries the moment its ack returns, and drains accumulated
// deltas into the disk index in the background through the WAL commit
// protocol of ShardedIndex::ApplyLogged (append durable -> apply -> flush
// caches -> commit record).
//
// Submit protocol (SubmitLive): under the submit lock, the documents are
// inverted against the disk index's vocabulary and assigned the next doc
// ids (ShardedIndex::BuildLiveBatch), the batch is appended to the WAL
// (durable — the ack promise), and only then inserted into the active
// delta tier. A document is therefore acked only after it is BOTH
// durable and visible; a crash before the ack may leave the batch in the
// WAL (replayed on recovery, standard ambiguous-outcome semantics), but
// an acked document always survives: either the delta still holds it
// (WAL tail replays it) or the drain already committed it.
//
// Drain protocol (epoch handoff): seal the active tier by swapping in a
// fresh DeltaIndex (one pointer swap under the submit + tier locks; the
// sealed tier becomes `draining_`), apply its postings to the disk index,
// flush dirty cache frames, then mark the covered WAL batches applied —
// and only then drop the sealed tier. Readers pin both tiers by
// shared_ptr, so a query racing the drain sees every acked document in
// the delta, on disk, or both (MergingReader dedups); never neither.
// That is the visibility invariant the stress test asserts per query.
//
// Drain failure is sticky: a half-applied batch must not be re-applied
// (postings would duplicate), so the sealed tier stays visible, the
// error is latched, and every later drain/flush/checkpoint returns it.
// Recovery is a restart — the WAL replays the sealed batches exactly
// once into fresh structures.
//
// Lock order: drain_mutex_ > submit_mutex_ > tiers_mutex_ > wal_mutex_
// (each may be taken alone; never in reverse). ShardedIndex's internal
// doc/shard locks nest strictly below all of these.
class LiveIndex {
 public:
  struct Options {
    // Reject SubmitLive with typed kResourceExhausted (the BUSY status
    // net::Client retries) when the delta tiers already hold this many
    // documents. 0 = unbounded.
    size_t delta_cap_docs = 0;
    // Background drainer period.
    std::chrono::milliseconds drain_interval{50};
  };

  // `index` is the drain target and vocabulary/doc-id authority; `wal`
  // may be null (no durability logging). Both borrowed, not owned. All
  // ingest into `index` must go through this object once queries read
  // through it.
  LiveIndex(ShardedIndex* index, BatchLog* wal, Options options);
  LiveIndex(ShardedIndex* index, BatchLog* wal)
      : LiveIndex(index, wal, Options()) {}
  ~LiveIndex();

  LiveIndex(const LiveIndex&) = delete;
  LiveIndex& operator=(const LiveIndex&) = delete;

  struct SubmitReceipt {
    DocId first_doc = 0;
    uint32_t accepted = 0;
    uint64_t wal_batch_id = 0;  // 0 when no WAL is attached
    uint64_t epoch = 0;         // delta epoch the documents landed in
    uint64_t delta_docs = 0;    // tier depth after the insert
  };

  // Immediate-visibility ingest: durable + queryable at return.
  // kResourceExhausted when the delta cap is hit (back off and retry).
  Result<SubmitReceipt> SubmitLive(const std::vector<std::string>& documents);

  // The paper's batch path (kSubmitDocuments semantics: durable AND
  // applied to the disk index at return): the documents become one live
  // batch (BuildLiveBatch) applied through ShardedIndex::ApplyLogged, or
  // unlogged without a WAL. Serialized against live submits; the delta
  // drains first, since posting lists grow in doc-id order. A failed
  // batch burns its doc ids, as a failed SubmitLive does.
  Result<SubmitReceipt> SubmitBatch(const std::vector<std::string>& documents);

  // Deletes everywhere: the disk index filters its lists, and both delta
  // tiers filter theirs until the drain hands the doc over.
  void DeleteDocument(DocId doc);

  // A pinned point-in-time read view: disk index + the delta tiers alive
  // at acquisition, merged with doc-id dedup. Cheap — three shared_ptr
  // copies; the MergingReader (immutable after construction) is cached
  // and shared across views, rebuilt only when a submit or drain swaps a
  // tier pointer. While both tiers are empty the view is the ShardedIndex
  // itself, with no overlay. Hold it for one query.
  class ReadView {
   public:
    const IndexReader& reader() const { return *reader_; }

   private:
    friend class LiveIndex;
    const IndexReader* reader_ = nullptr;
    std::shared_ptr<DeltaIndex> active_;
    std::shared_ptr<DeltaIndex> draining_;
    std::shared_ptr<const MergingReader> merged_;
  };
  ReadView AcquireView() const;

  // One drain round (no-op when the delta is empty). Serialized with the
  // background drainer.
  Status DrainOnce();
  // Drains until both tiers are empty. New submits may interleave
  // between rounds; each round's handoff is still atomic.
  Status DrainAll();

  // Background drainer thread (mirrors ShardedIndex's background
  // compaction): every `options.drain_interval` it runs one drain round.
  // Start/Stop are idempotent; Stop runs in the destructor.
  void StartDrainer();
  void StopDrainer();
  bool drainer_running() const;

  // Checkpoint with live ingest quiesced: submits are excluded, the
  // delta fully drains (a checkpoint covers only committed work — the
  // Checkpointer refuses unapplied WAL batches), then the image is cut.
  Result<CheckpointInfo> CheckpointNow(Checkpointer* checkpointer);

  // Shutdown hook: drain everything, then flush dirty cache frames.
  Status Flush();

  // Point-in-time WAL accounting (the only safe way to observe the
  // BatchLog while live submits race — it is unsynchronized).
  struct WalStatus {
    bool attached = false;
    uint64_t tail_batches = 0;
    uint64_t base_epoch = 0;
    uint64_t next_id = 0;
    uint64_t unapplied = 0;  // acked-but-undrained batches
  };
  WalStatus GetWalStatus() const;

  // Snapshot of the delta tier for /statusz and metrics.
  struct DeltaStatus {
    uint64_t epoch = 0;           // epoch of the active tier
    uint64_t active_docs = 0;
    uint64_t draining_docs = 0;
    uint64_t postings = 0;        // both tiers
    uint64_t drain_rounds = 0;
    uint64_t last_drain_ns = 0;
    uint64_t busy_rejections = 0;
    uint64_t oldest_age_ms = 0;   // age of the oldest undrained insert
    bool drainer_running = false;
    Status drain_status;          // sticky first drain error
  };
  DeltaStatus GetDeltaStatus() const;

  ShardedIndex* index() { return index_; }
  const Options& options() const { return options_; }

 private:
  // One round; requires drain_mutex_. When `submit_held`, the caller
  // already owns submit_mutex_ (checkpoint/flush quiesce) and the seal
  // must not re-lock it.
  Status DrainLocked(bool submit_held);
  // Requires drain_mutex_ (+ submit_mutex_ when `submit_held`): rounds
  // until empty.
  Status DrainAllLocked(bool submit_held);
  bool DeltaEmpty() const;

  ShardedIndex* index_;
  BatchLog* wal_;
  Options options_;

  // Serializes drain rounds (and checkpoint/flush, which are drains).
  std::mutex drain_mutex_;
  // Serializes submits; the drain's epoch handoff takes it so a submit's
  // insert can never land in a tier after that tier was snapshotted.
  mutable std::mutex submit_mutex_;
  // Guards the tier pointers + epoch for lock-free-ish reader pinning.
  mutable std::shared_mutex tiers_mutex_;
  std::shared_ptr<DeltaIndex> active_;
  std::shared_ptr<DeltaIndex> draining_;
  uint64_t epoch_ = 1;  // guarded by tiers_mutex_
  // Memoized merged reader for AcquireView, valid while the tier
  // pointers it was built over are still current (all under
  // tiers_mutex_). Readers share one MergingReader instead of
  // allocating per query.
  mutable std::shared_ptr<const MergingReader> cached_merged_;
  mutable std::shared_ptr<DeltaIndex> cached_active_;
  mutable std::shared_ptr<DeltaIndex> cached_draining_;

  // ALL BatchLog access goes through this (it is not thread-safe, and
  // SubmitLive's append races the drain's MarkApplied otherwise).
  mutable std::mutex wal_mutex_;

  // Drainer thread + drain statistics.
  mutable std::mutex state_mutex_;
  std::condition_variable drainer_cv_;
  std::thread drainer_;
  bool drainer_stop_ = false;       // guarded by state_mutex_
  uint64_t drain_rounds_ = 0;       // guarded by state_mutex_
  uint64_t last_drain_ns_ = 0;      // guarded by state_mutex_
  uint64_t busy_rejections_ = 0;    // guarded by state_mutex_
  Status drain_error_;              // guarded by state_mutex_; sticky

  Gauge* m_delta_docs_ = nullptr;
  Gauge* m_delta_postings_ = nullptr;
  Counter* m_live_submits_ = nullptr;
  Counter* m_busy_ = nullptr;
  Counter* m_drain_rounds_ = nullptr;
  LatencyHistogram* m_drain_ns_ = nullptr;
  LatencyHistogram* m_submit_ns_ = nullptr;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_LIVE_INDEX_H_
