#include "core/delta_index.h"

#include <algorithm>
#include <mutex>

#include "util/logging.h"

namespace duplex::core {

void DeltaIndex::Insert(const text::InvertedBatch& batch,
                        const std::vector<std::string>& words,
                        DocId first_doc, uint32_t documents, bool logged,
                        uint64_t wal_batch_id) {
  DUPLEX_CHECK(batch.entries.size() == words.size());
  std::unique_lock lock(mutex_);
  if (empty_locked()) oldest_insert_ = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.entries.size(); ++i) {
    const std::vector<DocId>& docs = batch.entries[i].docs;
    if (!docs.empty()) {
      std::vector<DocId>& list = lists_[batch.entries[i].word];
      DUPLEX_CHECK(list.empty() || list.back() < docs.front())
          << "postings must be appended in ascending doc-id order";
      list.insert(list.end(), docs.begin(), docs.end());
      postings_ += docs.size();
    }
    words_.emplace(words[i], batch.entries[i].word);
  }
  documents_ += documents;
  next_doc_id_ = std::max(next_doc_id_, first_doc + documents);
  if (logged) wal_batch_ids_.push_back(wal_batch_id);
}

void DeltaIndex::MarkDeleted(DocId doc) {
  std::unique_lock lock(mutex_);
  deleted_.insert(doc);
}

bool DeltaIndex::empty_locked() const {
  return documents_ == 0 && wal_batch_ids_.empty();
}

bool DeltaIndex::empty() const {
  std::shared_lock lock(mutex_);
  return empty_locked();
}

size_t DeltaIndex::document_count() const {
  std::shared_lock lock(mutex_);
  return documents_;
}

uint64_t DeltaIndex::total_postings() const {
  std::shared_lock lock(mutex_);
  return postings_;
}

std::chrono::steady_clock::time_point DeltaIndex::oldest_insert() const {
  std::shared_lock lock(mutex_);
  return oldest_insert_;
}

DeltaIndex::DrainSnapshot DeltaIndex::Snapshot() const {
  std::shared_lock lock(mutex_);
  DrainSnapshot snap;
  snap.batch.entries.reserve(lists_.size());
  for (const auto& [word, docs] : lists_) {
    snap.batch.entries.push_back({word, docs});
  }
  std::sort(snap.batch.entries.begin(), snap.batch.entries.end(),
            [](const text::InvertedBatch::Entry& a,
               const text::InvertedBatch::Entry& b) {
              return a.word < b.word;
            });
  snap.wal_batch_ids = wal_batch_ids_;
  snap.documents = documents_;
  snap.postings = postings_;
  return snap;
}

ListLocation DeltaIndex::LocateLocked(WordId word) const {
  ListLocation loc;
  auto it = lists_.find(word);
  if (it != lists_.end()) {
    loc.exists = true;
    loc.postings = it->second.size();
  }
  return loc;
}

ListLocation DeltaIndex::Locate(WordId word) const {
  std::shared_lock lock(mutex_);
  return LocateLocked(word);
}

ListLocation DeltaIndex::Locate(std::string_view word) const {
  std::shared_lock lock(mutex_);
  auto it = words_.find(std::string(word));
  if (it == words_.end()) return ListLocation{};
  return LocateLocked(it->second);
}

Result<std::vector<DocId>> DeltaIndex::FilteredPostings(WordId word) const {
  auto it = lists_.find(word);
  if (it == lists_.end()) return Status::NotFound("word has no inverted list");
  std::vector<DocId> postings = it->second;
  if (!deleted_.empty()) {
    postings.erase(
        std::remove_if(postings.begin(), postings.end(),
                       [&](DocId d) { return deleted_.contains(d); }),
        postings.end());
  }
  return postings;
}

Result<std::vector<DocId>> DeltaIndex::GetPostings(WordId word) const {
  std::shared_lock lock(mutex_);
  return FilteredPostings(word);
}

Result<std::vector<DocId>> DeltaIndex::GetPostings(
    std::string_view word) const {
  std::shared_lock lock(mutex_);
  auto it = words_.find(std::string(word));
  if (it == words_.end()) return Status::NotFound("unknown word");
  return FilteredPostings(it->second);
}

DocId DeltaIndex::next_doc_id() const {
  std::shared_lock lock(mutex_);
  return next_doc_id_;
}

void DeltaIndex::ForEachWord(const std::function<void(WordId)>& fn) const {
  std::shared_lock lock(mutex_);
  for (const auto& [word, list] : lists_) fn(word);
}

}  // namespace duplex::core
