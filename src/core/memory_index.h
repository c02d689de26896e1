#ifndef DUPLEX_CORE_MEMORY_INDEX_H_
#define DUPLEX_CORE_MEMORY_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/index_reader.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/types.h"

namespace duplex::core {

// The in-memory inverted index over documents that have arrived but not
// yet been flushed to disk. The paper's introduction requires exactly
// this: updates are batched, and "to maintain access to the batch, it can
// be searched simultaneously with the larger index". ShardedIndex merges
// these postings into query results until FlushDocuments() drains them.
//
// MemoryIndex is also a full IndexReader: standing alone it is the delta
// tier of an immediate-visibility ingest path, and under a MergingReader
// it overlays an on-disk index so unflushed documents answer queries —
// the merge shape of Asadi & Lin's in-memory incremental indexing.
// Buffered lists cost no disk reads, so Locate reports zero chunks.
class MemoryIndex : public IndexReader {
 public:
  MemoryIndex(const text::Tokenizer* tokenizer,
              text::Vocabulary* vocabulary)
      : tokenizer_(tokenizer), vocabulary_(vocabulary) {}

  MemoryIndex(const MemoryIndex&) = delete;
  MemoryIndex& operator=(const MemoryIndex&) = delete;

  // Tokenizes `text` and adds its words under `doc`. Doc ids must arrive
  // in ascending order.
  void AddDocument(DocId doc, const std::string& text);

  // Posting-level ingest for the delta tier: appends already-inverted,
  // ascending `docs` under `word` (ids assigned by an external
  // vocabulary, so a nullptr tokenizer/vocabulary index can be fed this
  // way). Every doc id must exceed the list's current tail.
  void AddPostings(WordId word, const std::vector<DocId>& docs);
  // Accounts `count` documents whose postings arrived via AddPostings and
  // advances the doc-id horizon to at least `next`.
  void NoteDocuments(size_t count, DocId next);

  // Postings buffered for `word`; nullptr when none.
  const std::vector<DocId>* Find(WordId word) const;

  size_t document_count() const { return documents_; }
  size_t distinct_words() const { return lists_.size(); }
  uint64_t total_postings() const { return postings_; }
  bool empty() const { return documents_ == 0; }

  void Clear();

  const std::unordered_map<WordId, std::vector<DocId>>& lists() const {
    return lists_;
  }

  // --- IndexReader ---------------------------------------------------------

  ListLocation Locate(WordId word) const override;
  ListLocation Locate(std::string_view word) const override;
  Result<std::vector<DocId>> GetPostings(WordId word) const override;
  Result<std::vector<DocId>> GetPostings(std::string_view word) const override;
  // One past the largest doc id ever buffered. Monotonic across Clear():
  // doc ids keep ascending globally, so the horizon survives a flush.
  DocId next_doc_id() const override { return next_doc_id_; }
  void ForEachWord(const std::function<void(WordId)>& fn) const override;

 private:
  const text::Tokenizer* tokenizer_;
  text::Vocabulary* vocabulary_;
  std::unordered_map<WordId, std::vector<DocId>> lists_;
  size_t documents_ = 0;
  uint64_t postings_ = 0;
  DocId next_doc_id_ = 0;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_MEMORY_INDEX_H_
