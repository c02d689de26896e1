#ifndef DUPLEX_CORE_SHARDED_INDEX_H_
#define DUPLEX_CORE_SHARDED_INDEX_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/index_reader.h"
#include "core/index_shard.h"
#include "core/index_stats.h"
#include "core/inverted_index.h"
#include "storage/io_trace.h"
#include "text/batch.h"
#include "text/shard_partition.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace duplex::core {

class BatchLog;

// Configuration of a word-partitioned index.
struct ShardedIndexOptions {
  // Per-shard index configuration; every shard is built from the same
  // options (so merged statistics stay meaningful) but owns independent
  // instances of everything inside.
  IndexOptions shard;
  uint32_t num_shards = 4;
  // Worker threads for parallel batch apply; 0 means one per shard.
  // `threads = 1` with `num_shards > 1` still shards the word space (and
  // the locks) but applies sub-batches sequentially.
  uint32_t threads = 0;

  // Optional per-shard tweak applied to a copy of `shard` before that
  // shard's index is built. Fault-isolation tests use it to arm a fault
  // schedule on exactly one shard's disks while the rest stay clean.
  std::function<void(uint32_t shard, IndexOptions&)> customize_shard;

  // Splits a single-index configuration across `num_shards` shards,
  // dividing the bucket space so the total bucket capacity matches the
  // unsharded index (disk geometry is kept per shard: each shard owns its
  // own disk array, mirroring the paper's "assign long lists across
  // multiple disks" scaled out).
  static ShardedIndexOptions Partition(const IndexOptions& total,
                                       uint32_t num_shards,
                                       uint32_t threads = 0);
};

// Shard count duplexd serves with unless told otherwise (--shards).
inline constexpr uint32_t kServingShards = 4;

// The index geometry duplexd serves and duplexctl builds, recovers and
// checkpoints, as one unsharded total for ShardedIndexOptions::Partition
// to split. One definition, so a checkpoint either binary installs passes
// the other's geometry check.
IndexOptions ServingIndexOptions();

// The word-partitioned dual-structure index: N independent IndexShards
// (each a full InvertedIndex — bucket store, long-list store, directory,
// disk array, I/O trace — behind its own reader-writer lock) with the
// word space hash-partitioned across them by text::ShardForWord.
//
// Concurrency model: a batch update is split into per-shard sub-batches
// and applied under per-shard exclusive locks, in parallel on a fixed
// worker pool; queries take only the owning shard's shared lock, so a
// batch applying on shard 2 never blocks a query whose words live on
// shard 0 — the paper's 24x7 motivation carried past a single global
// lock. Document buffering (AddDocument) and the shared vocabulary sit
// above the shards behind a separate reader-writer lock, acquired before
// any shard lock (fixed order, no deadlock).
//
// Determinism: shard assignment depends only on (word, num_shards), each
// shard's trace is recorded by exactly one worker per batch, and
// MergedTrace() interleaves the per-shard traces in shard order with
// global disk ids disk_global = shard * disks_per_shard + disk_local, so
// recorded traces are bit-identical across runs regardless of thread
// scheduling.
class ShardedIndex : public IndexReader {
 public:
  explicit ShardedIndex(const ShardedIndexOptions& options);
  ~ShardedIndex() override;

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  const ShardedIndexOptions& options() const { return options_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t ShardFor(WordId word) const {
    return text::ShardForWord(word, num_shards());
  }
  IndexShard& shard(uint32_t s) { return *shards_[s]; }
  const IndexShard& shard(uint32_t s) const { return *shards_[s]; }

  // --- Batch update paths (parallel across shards) -----------------------

  // Splits the batch by word hash and applies the sub-batches to their
  // shards concurrently. Every shard participates in every batch (empty
  // sub-batches included) so per-shard update counts and trace boundaries
  // stay aligned. On multi-shard failure the first shard's error (by
  // shard id) is returned.
  Status ApplyBatchUpdate(const text::BatchUpdate& batch);
  Status ApplyInvertedBatch(const text::InvertedBatch& batch);

  // --- Document path ------------------------------------------------------

  // Buffers a document in the index-wide memory index (shared vocabulary);
  // buffered documents are immediately searchable, exactly as in
  // InvertedIndex. FlushDocuments inverts the buffer once, partitions by
  // word, and applies per shard in parallel.
  DocId AddDocument(const std::string& text);
  Status FlushDocuments();
  // FlushDocuments under the WAL commit protocol: the inverted buffer is
  // appended to `log` (durable) before any shard applies it, dirty cache
  // frames are flushed after, and the commit record lands last — the
  // ordering BatchLog::ApplyLogged documents, lifted to the sharded
  // index. `log` may be null (plain flush); `batch_id` (optional)
  // receives the WAL batch id, 0 when nothing was logged.
  Status FlushDocumentsLogged(BatchLog* log, uint64_t* batch_id = nullptr);
  size_t buffered_documents() const;

  // --- Live-ingest path (used by core::LiveIndex) --------------------------

  // One live submit, inverted against the shared vocabulary with its doc
  // ids assigned — but NOT buffered here: the caller (the delta tier)
  // owns visibility until the batch drains back in via
  // ApplyInvertedBatch. `words[i]` is the string of
  // `batch.entries[i].word`, so the delta can resolve string-keyed query
  // terms without taking this index's locks.
  struct LiveBatch {
    text::InvertedBatch batch;        // sorted by word, vocabulary ids
    std::vector<std::string> words;   // parallel to batch.entries
    DocId first_doc = 0;
    uint32_t documents = 0;
  };

  // Tokenizes `documents`, assigns them the next doc ids, and returns the
  // inverted batch. FailedPrecondition while AddDocument-buffered
  // documents exist: the live and buffered ingest disciplines assign doc
  // ids differently and must not interleave — flush the buffer first.
  Result<LiveBatch> BuildLiveBatch(const std::vector<std::string>& documents);

  // --- Query access (the IndexReader surface; per-shard shared locks) -----

  ListLocation Locate(WordId word) const override;
  ListLocation Locate(std::string_view word) const override;
  Result<std::vector<DocId>> GetPostings(WordId word) const override;
  Result<std::vector<DocId>> GetPostings(
      std::string_view word) const override;

  // Every word with a list on any shard or in the index-wide document
  // buffer, each exactly once (shards partition the word space, so only
  // buffered words need a containment check).
  void ForEachWord(const std::function<void(WordId)>& fn) const override;

  // --- Deletion ------------------------------------------------------------

  void DeleteDocument(DocId doc);
  bool IsDeleted(DocId doc) const;
  size_t deleted_count() const;
  Status SweepDeletions();

  // --- Maintenance ---------------------------------------------------------

  // Grows every shard's bucket space (per-shard geometry values).
  Status GrowBuckets(uint32_t new_num_buckets_per_shard,
                     uint64_t new_bucket_capacity);

  // Writes every shard's dirty cache frames back to its devices
  // (write-back mode; no-op otherwise). Parallel across shards.
  Status FlushCaches();

  // --- Long-list compaction ------------------------------------------------

  // One bounded compaction round on every shard, in parallel on the
  // worker pool (per-shard exclusive locks, same as a batch apply).
  // Returns the merged round stats.
  Result<CompactionStats> CompactOnce();

  // Starts/stops the background compaction thread: every `interval` it
  // walks the shards round-robin, running one round per shard under that
  // shard's exclusive lock — queries on other shards proceed untouched,
  // mirroring how a batch apply shares the index. Start and Stop are
  // idempotent, safe without a prior Start, and safe to race against each
  // other (the thread handle only moves under compaction_mutex_). Stop
  // runs in the destructor.
  void StartBackgroundCompaction(
      std::chrono::milliseconds interval = std::chrono::milliseconds(50));
  void StopBackgroundCompaction();
  bool background_compaction_running() const;
  // Background rounds completed, and the first error one of them hit
  // (OK when none did).
  uint64_t background_compaction_rounds() const;
  Status background_compaction_status() const;

  // Accumulated per-shard compaction totals, merged (consistent snapshot
  // under all shard locks).
  CompactionStats compaction_totals() const;

  // --- Introspection -------------------------------------------------------

  // Merged statistics (MergeStats over a consistent per-shard snapshot:
  // all shard locks are held in ascending order while collecting).
  IndexStats Stats() const;
  std::vector<IndexStats> ShardStats() const;

  // Per-update categories summed across shards (paper Figure 7).
  std::vector<UpdateCategories> MergedCategories() const;

  // Every shard's VerifyIntegrity plus cross-shard accounting (each word
  // owned by its hash shard; merged posting totals consistent).
  Status VerifyIntegrity() const;

  // Deterministic merged trace: for each batch update, shard 0's events,
  // then shard 1's, ..., with disk ids remapped via GlobalDiskId.
  storage::IoTrace MergedTrace() const;
  storage::DiskId GlobalDiskId(uint32_t shard,
                               storage::DiskId local_disk) const {
    return static_cast<storage::DiskId>(
        shard * options_.shard.disks.num_disks + local_disk);
  }

  DocId next_doc_id() const override;
  const text::Vocabulary& vocabulary() const { return vocabulary_; }

  // --- Checkpoint hooks (used by core::Checkpointer) ------------------------

  // A fully quiesced read view: every shard's index plus the index-wide
  // document state, all captured under one consistent cut.
  struct CheckpointView {
    std::vector<const InvertedIndex*> shards;
    const text::Vocabulary* vocabulary = nullptr;
    DocId next_doc_id = 0;
    std::vector<DocId> deleted;  // sorted
  };

  // Runs `fn` holding the document mutex (shared) plus every shard's
  // shared lock, acquired in ascending shard order. Because
  // FlushDocumentsLogged holds the document mutex exclusively across its
  // whole WAL protocol (append -> apply -> flush -> commit), a view taken
  // here can never observe a batch that is appended but not yet applied —
  // which is exactly the consistency a checkpoint needs. Queries proceed
  // concurrently; batch applies wait.
  Status WithCheckpointView(
      const std::function<Status(const CheckpointView&)>& fn) const;

  // Checkpoint-restore hook: reinstates the index-wide document state
  // after the per-shard restores (vocabulary ids must rebuild densely in
  // order, or Corruption).
  Status RestoreDocState(DocId next_doc_id, std::vector<DocId> deleted,
                         const std::vector<std::string>& vocabulary_words);

  // WAL-replay hook: reinstates the word strings a materialized batch
  // record carried (`words[i]` names `batch.entries[i].word`) at their
  // recorded ids, so a rebuild from the log answers string-keyed queries
  // — a checkpoint image snapshots the whole vocabulary, but a
  // log-only recovery sees words solely through these records. No-op for
  // an empty `words` (older records carried none).
  Status RestoreBatchWords(const text::InvertedBatch& batch,
                           const std::vector<std::string>& words);

 private:
  // Applies `fn(shard_index)` to every shard on the worker pool and
  // returns the first non-OK status in shard order.
  Status ParallelOverShards(const std::function<Status(uint32_t)>& fn);

  ShardedIndexOptions options_;
  std::vector<std::unique_ptr<IndexShard>> shards_;
  mutable ThreadPool pool_;

  // Per-shard apply wall-clock, labeled shard="s" so skew between shards
  // is visible in one export. Null entries = recording off.
  std::vector<LatencyHistogram*> m_shard_apply_ns_;
  LatencyHistogram* m_partition_ns_ = nullptr;

  // Background compaction thread state. The thread takes only per-shard
  // write locks (never doc_mutex_, never two shard locks at once), so it
  // composes with every other lock order in this file.
  mutable std::mutex compaction_mutex_;
  std::condition_variable compaction_cv_;
  std::thread compaction_thread_;
  bool compaction_stop_ = false;          // guarded by compaction_mutex_
  uint64_t compaction_rounds_done_ = 0;   // guarded by compaction_mutex_
  Status compaction_status_;              // guarded by compaction_mutex_

  // Document-buffer state, locked before any shard lock.
  mutable std::shared_mutex doc_mutex_;
  text::Vocabulary vocabulary_;
  text::Tokenizer tokenizer_;
  MemoryIndex memory_index_{&tokenizer_, &vocabulary_};
  DocId next_doc_id_ = 0;
  std::unordered_set<DocId> deleted_;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_SHARDED_INDEX_H_
