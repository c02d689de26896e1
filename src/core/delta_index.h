#ifndef DUPLEX_CORE_DELTA_INDEX_H_
#define DUPLEX_CORE_DELTA_INDEX_H_

#include <chrono>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/index_reader.h"
#include "text/batch.h"
#include "util/types.h"

namespace duplex::core {

// The one in-memory tier of the index: the paper's in-memory batch that
// "can be searched simultaneously with the larger index". It accepts
// already-inverted live batches and serves the full IndexReader surface
// under a reader-writer lock, so N query threads overlap freely with the
// single live writer; buffered lists cost no disk reads, so Locate
// reports zero chunks. Word ids are assigned by the on-disk index's shared
// vocabulary BEFORE insertion (ShardedIndex::BuildLiveBatch), which is
// what lets a drained batch replay from the WAL into the same id space;
// the delta keeps its own word-string map so string-keyed queries resolve
// without touching the disk index's locks.
//
// A DeltaIndex is one *epoch* of the live tier. LiveIndex swaps a full
// epoch out for a fresh one atomically (the epoch handoff) and drains the
// sealed epoch into the disk index; readers that pinned the sealed epoch
// keep a consistent view because nothing is ever removed from a
// DeltaIndex — it is insert-only until the whole object is dropped.
class DeltaIndex : public IndexReader {
 public:
  explicit DeltaIndex(uint64_t epoch) : epoch_(epoch) {}

  DeltaIndex(const DeltaIndex&) = delete;
  DeltaIndex& operator=(const DeltaIndex&) = delete;

  // Inserts one live batch: `batch.entries[i]` holds the ascending doc
  // ids for word `batch.entries[i].word`, whose string is `words[i]`.
  // The batch's `documents` doc ids start at `first_doc` and all exceed
  // every previously inserted id (checked: a list's new postings must
  // follow its tail). When `logged` is true, `wal_batch_id`
  // is remembered so the drain can mark it applied after the postings
  // reach the disk index (id 0 is a valid first batch id, hence the
  // explicit flag rather than a sentinel).
  void Insert(const text::InvertedBatch& batch,
              const std::vector<std::string>& words, DocId first_doc,
              uint32_t documents, bool logged, uint64_t wal_batch_id);

  // Marks `doc` deleted in this tier only; GetPostings filters it.
  void MarkDeleted(DocId doc);

  // True when nothing needs draining: no documents were inserted AND no
  // WAL batch id is pending a commit record (a batch of zero-token
  // documents carries no postings but still owes the WAL its commit).
  bool empty() const;

  size_t document_count() const;
  uint64_t total_postings() const;
  uint64_t epoch() const { return epoch_; }
  // Steady-clock instant of the first insert; meaningful when !empty().
  std::chrono::steady_clock::time_point oldest_insert() const;

  // Consistent cut for the drain: every inserted posting (deletions
  // included — the disk index's own deletion filter covers them after
  // the drain, exactly as WAL replay would) as one word-sorted batch,
  // plus the WAL batch ids awaiting their commit records.
  struct DrainSnapshot {
    text::InvertedBatch batch;
    std::vector<uint64_t> wal_batch_ids;
    size_t documents = 0;
    uint64_t postings = 0;
  };
  DrainSnapshot Snapshot() const;

  // --- IndexReader (all shared-lock, safe against a racing Insert) --------

  ListLocation Locate(WordId word) const override;
  ListLocation Locate(std::string_view word) const override;
  Result<std::vector<DocId>> GetPostings(WordId word) const override;
  Result<std::vector<DocId>> GetPostings(std::string_view word) const override;
  DocId next_doc_id() const override;
  void ForEachWord(const std::function<void(WordId)>& fn) const override;

 private:
  bool empty_locked() const;  // requires mutex_
  ListLocation LocateLocked(WordId word) const;  // requires mutex_
  Result<std::vector<DocId>> FilteredPostings(WordId word) const;

  const uint64_t epoch_;
  mutable std::shared_mutex mutex_;
  // Posting lists by disk-vocabulary id, each ascending.
  std::unordered_map<WordId, std::vector<DocId>> lists_;
  size_t documents_ = 0;
  uint64_t postings_ = 0;
  DocId next_doc_id_ = 0;
  // word string -> disk-vocabulary id, for string-keyed query terms.
  std::unordered_map<std::string, WordId> words_;
  std::unordered_set<DocId> deleted_;
  std::vector<uint64_t> wal_batch_ids_;
  std::chrono::steady_clock::time_point oldest_insert_{};
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_DELTA_INDEX_H_
