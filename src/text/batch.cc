#include "text/batch.h"

#include <algorithm>
#include <unordered_map>
#include <ostream>
#include <sstream>

#include "util/logging.h"

namespace duplex::text {

uint64_t BatchUpdate::TotalPostings() const {
  uint64_t sum = 0;
  for (const auto& p : pairs) sum += p.count;
  return sum;
}

void BatchUpdate::Print(std::ostream& os) const {
  for (const auto& p : pairs) os << p.word << " " << p.count << "\n";
  os << "0 0\n";  // end-of-batch marker, as in paper Figure 5
}

Result<BatchUpdate> BatchUpdate::Parse(const std::string& text) {
  BatchUpdate update;
  std::istringstream is(text);
  uint64_t word = 0;
  uint64_t count = 0;
  while (is >> word >> count) {
    if (word == 0 && count == 0) return update;
    update.pairs.push_back(
        {static_cast<WordId>(word), static_cast<uint32_t>(count)});
  }
  return Status::Corruption("batch update missing '0 0' terminator");
}

BatchUpdate InvertedBatch::ToBatchUpdate() const {
  BatchUpdate update;
  update.pairs.reserve(entries.size());
  for (const auto& e : entries) {
    update.pairs.push_back({e.word, static_cast<uint32_t>(e.docs.size())});
  }
  return update;
}

uint64_t InvertedBatch::TotalPostings() const {
  uint64_t sum = 0;
  for (const auto& e : entries) sum += e.docs.size();
  return sum;
}

InvertedBatch BatchInverter::Invert(const std::vector<std::string>& documents,
                                    DocId* next_doc_id) const {
  DUPLEX_CHECK(vocabulary_ != nullptr);
  DUPLEX_CHECK(next_doc_id != nullptr);
  // Hashed while building, sorted once at the end: cheaper than an
  // ordered map's per-token node walk on a batch of many documents.
  std::unordered_map<WordId, std::vector<DocId>> lists;
  for (const std::string& doc : documents) {
    const DocId doc_id = (*next_doc_id)++;
    for (const std::string& word : tokenizer_.Tokenize(doc)) {
      lists[vocabulary_->GetOrAdd(word)].push_back(doc_id);
    }
  }
  InvertedBatch batch;
  batch.entries.reserve(lists.size());
  for (auto& [word, docs] : lists) {
    batch.entries.push_back({word, std::move(docs)});
  }
  std::sort(batch.entries.begin(), batch.entries.end(),
            [](const InvertedBatch::Entry& a, const InvertedBatch::Entry& b) {
              return a.word < b.word;
            });
  return batch;
}

}  // namespace duplex::text
