#ifndef DUPLEX_CORE_MERGING_READER_H_
#define DUPLEX_CORE_MERGING_READER_H_

#include <vector>

#include "core/index_reader.h"

namespace duplex::core {

// Overlays N readers into one IndexReader view with doc-id dedup — the
// read-side shape of a delta + disk index pair: queries see the union of
// the in-memory DeltaIndex (documents that just arrived) and the on-disk
// ShardedIndex (everything flushed), without either side
// knowing about the other. Works over any reader combination; a doc id
// reported by several readers appears once.
//
// Cost semantics: Locate sums every reader's chunk/cached/posting
// counters — each underlying fetch really happens, so the overlay's cost
// is the sum even when doc ids collapse in the merge. `postings` can
// therefore exceed the deduplicated result size.
//
// Thread safety: MergingReader itself is immutable after construction;
// concurrent use is exactly as safe as the least-safe underlying reader
// (ShardedIndex and DeltaIndex both lock internally).
class MergingReader : public IndexReader {
 public:
  // `readers` must be non-empty; every pointer must outlive this object.
  explicit MergingReader(std::vector<const IndexReader*> readers);

  ListLocation Locate(WordId word) const override;
  ListLocation Locate(std::string_view word) const override;
  Result<std::vector<DocId>> GetPostings(WordId word) const override;
  Result<std::vector<DocId>> GetPostings(std::string_view word) const override;
  // The widest horizon of any underlying reader.
  DocId next_doc_id() const override;
  void ForEachWord(const std::function<void(WordId)>& fn) const override;

  size_t reader_count() const { return readers_.size(); }

 private:
  template <typename Key>
  ListLocation LocateImpl(Key key) const;
  template <typename Key>
  Result<std::vector<DocId>> GetPostingsImpl(Key key) const;

  std::vector<const IndexReader*> readers_;
};

// Merges ascending doc-id lists into one ascending, duplicate-free list
// (exposed for tests and future delta-drain code).
std::vector<DocId> MergeDocLists(
    const std::vector<std::vector<DocId>>& lists);

}  // namespace duplex::core

#endif  // DUPLEX_CORE_MERGING_READER_H_
