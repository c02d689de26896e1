#ifndef DUPLEX_CORE_INVERTED_INDEX_H_
#define DUPLEX_CORE_INVERTED_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/bucket_store.h"
#include "core/codec_family.h"
#include "core/compactor.h"
#include "core/index_reader.h"
#include "core/index_stats.h"
#include "core/long_list_store.h"
#include "core/memory_index.h"
#include "core/policy.h"
#include "storage/disk_array.h"
#include "storage/io_trace.h"
#include "text/batch.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/tracer.h"
#include "util/types.h"

namespace duplex::core {

// Top-level configuration of a dual-structure index.
struct IndexOptions {
  BucketStoreOptions buckets;
  Policy policy;
  uint64_t block_postings = 128;  // paper's BlockPosting
  // Bytes one bucket unit (word or posting) occupies in the on-disk bucket
  // region; sizes the periodic bucket flush. The paper's Figure 6 trace
  // implies ~16 bytes per unit.
  uint64_t bucket_unit_bytes = 16;
  storage::DiskArrayOptions disks;
  // Block cache over the disk array (see storage::BufferPool). Disabled by
  // default (capacity 0). Long-list reads and writes flow through it; the
  // shadow-paged bucket/directory regions bypass it by design — they
  // rewrite a region far larger than any sane cache every batch, and
  // their freed ranges are invalidated so stale frames cannot resurface.
  storage::BufferPoolOptions cache;
  // Store actual posting payloads (doc ids) so queries can run. The
  // count-only mode reproduces the paper's experiment pipeline.
  bool materialize = false;
  // Record every I/O into an internal trace (replayable by the
  // storage::TraceExecutor).
  bool record_trace = true;
  // Automatic bucket-space rebalancing (the paper's future-work item):
  // when bucket occupancy after a batch exceeds this threshold, the number
  // of buckets doubles and every short list is rehashed (overflow in the
  // new geometry is promoted). 0 disables auto-growth.
  double bucket_grow_threshold = 0.0;
  // Online long-list space reclamation (core::Compactor). With
  // compaction.enabled, every batch apply ends with one bounded round;
  // CompactOnce() runs rounds manually either way.
  CompactionOptions compaction;
  // On-disk chunk format for materialized long lists (see
  // core/chunk_format.h). kChunkFormatV1 prefixes every new chunk with a
  // versioned header carrying the codec id; kChunkFormatLegacy writes the
  // pre-versioning headerless layout (v0) for compatibility tests. Reads
  // handle both transparently.
  uint8_t chunk_format = 1;  // kChunkFormatV1
  // Posting-payload codec for materialized long-list chunks, recorded in
  // each chunk's header. Bitwise codecs (Elias gamma/delta) disable
  // in-place tail appends — their padded segments cannot concatenate.
  CodecKind long_list_codec = CodecKind::kVByte;
};

// UpdateCategories / IndexStats / ListLocation live in core/index_stats.h
// so the sharded index and ir layers can use them without this header.

// The dual-structure incremental inverted index (the paper's primary
// contribution). New documents accumulate in an in-memory index; each
// FlushBatch / ApplyBatchUpdate pushes one batch into the on-disk
// structures: short lists into hash-addressed fixed-size buckets, bucket
// overflows promoting the longest short lists into policy-managed long
// lists.
class InvertedIndex : public IndexReader {
 public:
  explicit InvertedIndex(const IndexOptions& options);

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  const IndexOptions& options() const { return options_; }

  // --- Count-only update path (the paper's evaluation pipeline) ---------

  // Applies one batch update of word-occurrence pairs (each word at most
  // once; any order). Appends this update's categories to
  // update_categories() and ends a trace update.
  Status ApplyBatchUpdate(const text::BatchUpdate& batch);

  // --- Materialized update path -----------------------------------------

  // Applies one inverted batch with real doc ids (requires materialize).
  Status ApplyInvertedBatch(const text::InvertedBatch& batch);

  // Buffers a raw document into the in-memory index; FlushDocuments()
  // pushes the accumulated batch to disk. Returns this document's id.
  // Buffered documents are immediately searchable: GetPostings merges the
  // in-memory batch with the on-disk structures, the paper's "searched
  // simultaneously with the larger index".
  DocId AddDocument(const std::string& text);
  Status FlushDocuments();
  size_t buffered_documents() const {
    return memory_index_.document_count();
  }
  const MemoryIndex& memory_index() const { return memory_index_; }

  // --- Query access (the IndexReader surface) ----------------------------

  // Where a word's list lives — input to the query cost model.
  using ListLocation = duplex::core::ListLocation;
  ListLocation Locate(WordId word) const override;
  ListLocation Locate(std::string_view word) const override;

  // Returns the word's full posting list (bucket or long list), with
  // deleted documents filtered out. Requires materialize. NotFound when
  // the word has no list.
  Result<std::vector<DocId>> GetPostings(WordId word) const override;
  Result<std::vector<DocId>> GetPostings(
      std::string_view word) const override;

  // Every word with a list anywhere in the index — long lists, buckets,
  // and the unflushed in-memory batch — each exactly once.
  void ForEachWord(const std::function<void(WordId)>& fn) const override;

  // --- Deletion (paper Section 3 end) -------------------------------------

  // Marks a document deleted; queries filter it immediately.
  void DeleteDocument(DocId doc) { deleted_.insert(doc); }
  bool IsDeleted(DocId doc) const { return deleted_.contains(doc); }
  size_t deleted_count() const { return deleted_.size(); }
  std::vector<DocId> deleted_docs() const {
    return {deleted_.begin(), deleted_.end()};
  }

  // Background sweep: rewrites every list dropping deleted documents, then
  // clears the deleted set. Requires materialize.
  Status SweepDeletions();

  // --- Repair (used by core::Scrub) ----------------------------------------

  // Replaces the long list of `word` wholesale with `docs` (ascending),
  // dropping its existing chunks and re-appending through the configured
  // policy. Posting accounting absorbs any size difference. Requires
  // materialize; NotFound when the word has no long list.
  Status RewriteLongList(WordId word, std::vector<DocId> docs);

  // --- Long-list compaction -------------------------------------------------

  // One bounded compaction round over the long-list store (see
  // core::Compactor): merges the most fragmented lists into right-sized
  // single chunks and returns the freed blocks to the allocator. Logical
  // postings are untouched, so callers running under a BatchLog need no
  // special crash handling — full replay recovers any mid-round crash.
  // Returns the round's stats; stats.more_pending says another round has
  // work left.
  Result<CompactionStats> CompactOnce();

  // Accumulated stats over every round this index ran (manual + auto).
  const CompactionStats& compaction_totals() const {
    return compaction_totals_;
  }

  // Checkpoint-restore hook: reinstates the accumulated compaction totals
  // the checkpointed instance had, so operator-visible reclamation history
  // survives a fast restart.
  void RestoreCompactionTotals(const CompactionStats& totals) {
    compaction_totals_ = totals;
  }

  // --- Bucket-space rebalancing ---------------------------------------------

  // Manually reshapes the bucket space (see BucketStore::Resize); lists
  // overflowing the new geometry are promoted to long lists through the
  // configured policy.
  Status GrowBuckets(uint32_t new_num_buckets,
                     uint64_t new_bucket_capacity);

  // --- Checkpoint restore hooks (used by core::Checkpointer) ---------------

  // Reinstates one word's full posting list into the structure it lived in
  // when the checkpoint image was cut: long lists are recreated through the
  // policy path; bucket lists are inserted into h(w) (which may promote on
  // overflow if the bucket configuration shrank). No trace update is
  // recorded.
  Status RestoreWord(WordId word, const PostingList& list, bool was_long);

  // Reinstates document-id state after all RestoreWord calls.
  void RestoreDocState(DocId next_doc_id, std::vector<DocId> deleted);

  // --- Buffer pool ---------------------------------------------------------

  // Writes every dirty cache frame back to the disk devices. Must run
  // before a batch is marked applied in the WAL (see BatchLog) so
  // write-back mode cannot lose committed index writes. No-op without a
  // cache or in write-through mode.
  Status FlushCaches();
  storage::CacheStats cache_stats() const { return disks_->cache_stats(); }

  // --- Introspection -------------------------------------------------------

  IndexStats Stats() const;

  // Structural self-check: every chunk non-empty and within its capacity,
  // no two chunks overlapping on disk, per-word chunk postings summing to
  // the directory totals, and global posting accounting consistent.
  // Returns Corruption with a description on the first violation.
  Status VerifyIntegrity() const;
  const std::vector<UpdateCategories>& update_categories() const {
    return categories_;
  }
  const storage::IoTrace& trace() const { return trace_; }
  const BucketStore& bucket_store() const { return buckets_; }
  BucketStore& bucket_store() { return buckets_; }
  const LongListStore& long_list_store() const { return *long_lists_; }
  const storage::DiskArray& disks() const { return *disks_; }
  // Mutable array access for fault/scrub integration (fault schedules,
  // checksum verification below the cache).
  storage::DiskArray& disks() { return *disks_; }
  text::Vocabulary& vocabulary() { return vocabulary_; }
  const text::Vocabulary& vocabulary() const { return vocabulary_; }
  DocId next_doc_id() const override { return next_doc_id_; }

 private:
  // Per-batch accumulator for the routing counters. RouteList runs once
  // per word, so it bumps these plain fields; the batch-apply loop flushes
  // the totals into the registry counters with three Inc(n) calls instead
  // of one atomic add per word.
  struct RouteCounts {
    uint64_t long_appends = 0;
    uint64_t bucket_inserts = 0;
    uint64_t promotions = 0;
  };

  // Routes one in-memory list to the long-list store or the buckets,
  // promoting bucket evictions.
  Status RouteList(WordId word, const PostingList& list, RouteCounts* counts);

  // Adds a batch's accumulated routing counts to the registry counters.
  void FlushRouteCounts(const RouteCounts& counts);

  // End-of-batch flush of buckets + directory (shadow-paged: write new,
  // free old), then the long-list RELEASE list.
  Status FlushMeta();

  // Shared body of CompactOnce and the after-flush auto trigger: one
  // Compactor round, then the RELEASE list back to free space.
  Result<CompactionStats> RunCompactionRound();

  void Categorize(WordId word, UpdateCategories* cats) const;

  IndexOptions options_;
  std::unique_ptr<storage::DiskArray> disks_;
  storage::IoTrace trace_;
  BucketStore buckets_;
  std::unique_ptr<LongListStore> long_lists_;
  std::unique_ptr<Compactor> compactor_;
  CompactionStats compaction_totals_;
  text::Vocabulary vocabulary_;
  text::Tokenizer tokenizer_;
  MemoryIndex memory_index_{&tokenizer_, &vocabulary_};
  DocId next_doc_id_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t total_postings_ = 0;
  std::vector<UpdateCategories> categories_;
  std::unordered_set<DocId> deleted_;
  std::vector<storage::BlockRange> prev_bucket_ranges_;
  std::vector<storage::BlockRange> prev_directory_ranges_;

  // Registry handles, fetched at construction (null = recording off).
  LatencyHistogram* m_apply_ns_ = nullptr;
  LatencyHistogram* m_flush_ns_ = nullptr;
  Counter* m_long_appends_ = nullptr;
  Counter* m_bucket_inserts_ = nullptr;
  Counter* m_promotions_ = nullptr;
  Gauge* m_occupancy_ = nullptr;
  LatencyHistogram* m_compaction_round_ns_ = nullptr;
  Counter* m_compaction_rounds_ = nullptr;
  Counter* m_compaction_lists_ = nullptr;
  Counter* m_compaction_blocks_ = nullptr;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_INVERTED_INDEX_H_
