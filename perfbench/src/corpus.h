#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/vector_query.h"
#include "text/corpus_generator.h"
#include "util/random.h"
#include "util/types.h"

namespace perfbench {

using duplex::DocId;

// One document the benchmark submits. Its doc id is its position in the
// corpus: documents are planned in submit order, each stream has a single
// submitter, and Adopt() re-places single-document submits the daemon ran
// out of order.
struct Document {
  std::vector<uint64_t> keys;  // latent word keys, sorted
  std::string marker;          // unique marker word; empty for batch docs
  std::string text;            // what goes on the wire
};

// A contiguous run of documents submitted as one request.
struct Batch {
  DocId first = 0;
  uint32_t count = 0;
};

// The paper's daily-batch stream (text::CorpusGenerator, rendered with
// RenderDocumentText) laid out as the run's submit plan, plus the posting
// sets the oracle answers queries from.
class Corpus {
 public:
  Corpus(uint64_t seed, uint32_t docs_per_day);

  // Appends generator day `day` as one batch.
  Batch AddDay(uint32_t day);
  // Appends `count` single-document batches drawn from generator days
  // starting at `first_day`, each carrying a unique marker word so a
  // query can find exactly that document.
  std::vector<Batch> AddSingles(uint32_t count, uint32_t first_day);

  const Document& doc(DocId id) const { return docs_[id]; }
  DocId size() const { return static_cast<DocId>(docs_.size()); }
  std::vector<std::string> Texts(const Batch& batch) const;
  uint64_t TextBytes(DocId end) const;

  // Takes the last planned documents, [first, first + assigned.size()),
  // to the doc ids the daemon acked: the i-th moves to assigned[i], or is
  // dropped when it was never acked (~0). The acked ids must be dense
  // from `first`. Rebuilds the posting sets.
  void Adopt(DocId first, const std::vector<DocId>& assigned);
  // Builds the per-word posting sets over every planned document. Call
  // once the plan is complete.
  void BuildOracle();
  // Words with a posting among docs [0, end), most frequent first.
  std::vector<uint64_t> RankWords(DocId end) const;
  // Ascending doc ids containing `key` (over the whole plan).
  const std::vector<DocId>& Postings(uint64_t key) const;
  bool Contains(DocId doc, uint64_t key) const;
  uint64_t PostingsBefore(DocId end) const;

  static std::string Term(uint64_t key);
  static std::string MarkerWord(uint64_t n);

 private:
  duplex::text::CorpusGenerator generator_;
  std::vector<Document> docs_;
  std::unordered_map<uint64_t, std::vector<DocId>> postings_;
  uint64_t next_marker_ = 0;
};

enum class QueryKind : uint8_t { kAnd, kOr, kVector, kMarker };

struct Query {
  QueryKind kind = QueryKind::kAnd;
  std::vector<uint64_t> keys;   // the boolean pair, or the vector terms
  std::vector<double> weights;  // vector only
  DocId marker_doc = 0;         // kMarker only
  std::string text;             // boolean query text (kAnd/kOr/kMarker)
  duplex::ir::VectorQuery vector;
};

inline constexpr size_t kTopK = 10;

// The query mix: ~90% boolean AND/OR of two terms, ~10% vector top-10.
// Terms are drawn log-uniformly over frequency rank, so bucket words,
// short long lists and the longest lists all get traffic, and skewed
// popular x rare AND pairs occur.
class QueryMix {
 public:
  QueryMix(std::vector<uint64_t> ranked_words, uint64_t seed);
  Query Next();

 private:
  uint64_t DrawTerm();

  std::vector<uint64_t> ranked_;
  duplex::Rng rng_;
};

Query MarkerQuery(const Corpus& corpus, DocId doc);

// Which documents a reply may reflect. Docs below `floor` were acked
// before the query was sent and must be answered exactly; docs in
// [floor, ceiling) were in flight and may appear only if they match;
// nothing at or above `ceiling` had been submitted when the reply
// arrived. A quiescent index has floor == ceiling == documents acked.
struct Horizon {
  DocId floor = 0;
  DocId ceiling = 0;
};

// The documents below `end` a boolean or marker query matches, in doc id
// order, from the corpus' own posting sets.
std::vector<DocId> ExpectedBoolean(const Corpus& corpus, const Query& query,
                                   DocId end);

// Checks replies against the corpus' own posting sets. Each returns an
// empty string when the answer is right, else what is wrong with it.
std::string CheckBoolean(const Corpus& corpus, const Query& query,
                         const std::vector<DocId>& answer, Horizon horizon);
// Exact top-k (same idf, accumulation order and tie-break as the
// executor) when the horizon is quiescent; otherwise every hit must
// contain a query term and scores must not increase.
std::string CheckVector(const Corpus& corpus, const Query& query,
                        const std::vector<duplex::ir::ScoredDoc>& answer,
                        Horizon horizon);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
