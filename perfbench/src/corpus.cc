#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>

namespace perfbench {

namespace {

duplex::text::CorpusOptions GeneratorOptions(uint64_t seed,
                                             uint32_t docs_per_day) {
  duplex::text::CorpusOptions options;
  // Days are generated on demand and independently of this count.
  options.num_updates = 1000;
  options.docs_per_update = docs_per_day;
  options.seed = seed;
  return options;
}

std::string RenderText(const std::vector<uint64_t>& keys) {
  return duplex::text::CorpusGenerator::RenderDocumentText(keys);
}

}  // namespace

Corpus::Corpus(uint64_t seed, uint32_t docs_per_day)
    : generator_(GeneratorOptions(seed, docs_per_day)) {}

Batch Corpus::AddDay(uint32_t day) {
  Batch batch;
  batch.first = size();
  for (duplex::text::SyntheticDoc& keys : generator_.GenerateUpdate(day)) {
    Document doc;
    doc.text = RenderText(keys);
    doc.keys = std::move(keys);
    docs_.push_back(std::move(doc));
    ++batch.count;
  }
  return batch;
}

std::vector<Batch> Corpus::AddSingles(uint32_t count, uint32_t first_day) {
  std::vector<Batch> batches;
  for (uint32_t day = first_day; batches.size() < count; ++day) {
    for (duplex::text::SyntheticDoc& keys : generator_.GenerateUpdate(day)) {
      if (batches.size() == count) break;
      Document doc;
      doc.marker = MarkerWord(next_marker_++);
      doc.text = RenderText(keys) + " " + doc.marker;
      doc.keys = std::move(keys);
      batches.push_back({size(), 1});
      docs_.push_back(std::move(doc));
    }
  }
  return batches;
}

std::vector<std::string> Corpus::Texts(const Batch& batch) const {
  std::vector<std::string> texts;
  texts.reserve(batch.count);
  for (DocId d = batch.first; d < batch.first + batch.count; ++d) {
    texts.push_back(docs_[d].text);
  }
  return texts;
}

uint64_t Corpus::TextBytes(DocId end) const {
  uint64_t bytes = 0;
  for (DocId d = 0; d < end; ++d) bytes += docs_[d].text.size();
  return bytes;
}

void Corpus::Adopt(DocId first, const std::vector<DocId>& assigned) {
  size_t acked = 0;
  for (const DocId d : assigned) acked += d != ~DocId{0} ? 1 : 0;
  std::vector<Document> moved(acked);
  for (size_t i = 0; i < assigned.size(); ++i) {
    if (assigned[i] != ~DocId{0}) {
      moved[assigned[i] - first] = std::move(docs_[first + i]);
    }
  }
  docs_.resize(first);
  std::move(moved.begin(), moved.end(), std::back_inserter(docs_));
  BuildOracle();
}

void Corpus::BuildOracle() {
  postings_.clear();
  for (DocId d = 0; d < size(); ++d) {
    for (const uint64_t key : docs_[d].keys) postings_[key].push_back(d);
  }
}

std::vector<uint64_t> Corpus::RankWords(DocId end) const {
  std::vector<std::pair<uint64_t, uint64_t>> df;  // (df, key)
  for (const auto& [key, list] : postings_) {
    const auto n = static_cast<uint64_t>(
        std::lower_bound(list.begin(), list.end(), end) - list.begin());
    if (n > 0) df.emplace_back(n, key);
  }
  std::sort(df.begin(), df.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<uint64_t> ranked;
  ranked.reserve(df.size());
  for (const auto& entry : df) ranked.push_back(entry.second);
  return ranked;
}

const std::vector<DocId>& Corpus::Postings(uint64_t key) const {
  static const std::vector<DocId> kEmpty;
  auto it = postings_.find(key);
  return it == postings_.end() ? kEmpty : it->second;
}

bool Corpus::Contains(DocId doc, uint64_t key) const {
  const std::vector<DocId>& list = Postings(key);
  return std::binary_search(list.begin(), list.end(), doc);
}

uint64_t Corpus::PostingsBefore(DocId end) const {
  uint64_t n = 0;
  for (DocId d = 0; d < end; ++d) n += docs_[d].keys.size();
  return n;
}

std::string Corpus::Term(uint64_t key) {
  std::string text = RenderText({key});
  while (!text.empty() && text.back() == ' ') text.pop_back();
  return text;
}

std::string Corpus::MarkerWord(uint64_t n) {
  // 'x' never starts a rendered corpus word (those start with 'w'), so a
  // marker matches exactly one document.
  std::string word = "x";
  do {
    word.push_back(static_cast<char>('a' + n % 26));
    n /= 26;
  } while (n != 0);
  return word;
}

QueryMix::QueryMix(std::vector<uint64_t> ranked_words, uint64_t seed)
    : ranked_(std::move(ranked_words)), rng_(seed) {}

uint64_t QueryMix::DrawTerm() {
  const double log_v = std::log(static_cast<double>(ranked_.size()) + 1.0);
  auto rank = static_cast<size_t>(std::exp(rng_.NextDouble() * log_v));
  rank = std::clamp<size_t>(rank, 1, ranked_.size());
  return ranked_[rank - 1];
}

Query QueryMix::Next() {
  Query q;
  if (rng_.NextDouble() < 0.10) {
    q.kind = QueryKind::kVector;
    for (int i = 0; i < 6; ++i) {
      const uint64_t key = DrawTerm();
      const double weight = 1.0 + 0.5 * static_cast<double>(rng_.Uniform(3));
      q.keys.push_back(key);
      q.weights.push_back(weight);
      q.vector.terms.push_back({Corpus::Term(key), weight});
    }
    return q;
  }
  q.kind = rng_.Bernoulli(0.5) ? QueryKind::kAnd : QueryKind::kOr;
  const uint64_t a = DrawTerm();
  uint64_t b = DrawTerm();
  while (b == a) b = DrawTerm();
  q.keys = {a, b};
  q.text = Corpus::Term(a) + (q.kind == QueryKind::kAnd ? " AND " : " OR ") +
           Corpus::Term(b);
  return q;
}

Query MarkerQuery(const Corpus& corpus, DocId doc) {
  Query q;
  q.kind = QueryKind::kMarker;
  q.marker_doc = doc;
  q.text = corpus.doc(doc).marker;
  return q;
}

namespace {

bool Matches(const Corpus& corpus, const Query& q, DocId d) {
  switch (q.kind) {
    case QueryKind::kAnd:
      return corpus.Contains(d, q.keys[0]) && corpus.Contains(d, q.keys[1]);
    case QueryKind::kOr:
      return corpus.Contains(d, q.keys[0]) || corpus.Contains(d, q.keys[1]);
    case QueryKind::kMarker:
      return d == q.marker_doc;
    case QueryKind::kVector:
      break;
  }
  for (const uint64_t key : q.keys) {
    if (corpus.Contains(d, key)) return true;
  }
  return false;
}

std::string DocError(const char* what, DocId d) {
  return std::string(what) + " doc " + std::to_string(d);
}

}  // namespace

std::vector<DocId> ExpectedBoolean(const Corpus& corpus, const Query& q,
                                   DocId end) {
  if (q.kind == QueryKind::kMarker) {
    return q.marker_doc < end ? std::vector<DocId>{q.marker_doc}
                              : std::vector<DocId>{};
  }
  const std::vector<DocId>& a = corpus.Postings(q.keys[0]);
  const std::vector<DocId>& b = corpus.Postings(q.keys[1]);
  std::vector<DocId> out;
  const auto a_end = std::lower_bound(a.begin(), a.end(), end);
  const auto b_end = std::lower_bound(b.begin(), b.end(), end);
  if (q.kind == QueryKind::kAnd) {
    std::set_intersection(a.begin(), a_end, b.begin(), b_end,
                          std::back_inserter(out));
  } else {
    std::set_union(a.begin(), a_end, b.begin(), b_end,
                   std::back_inserter(out));
  }
  return out;
}

std::string CheckBoolean(const Corpus& corpus, const Query& query,
                         const std::vector<DocId>& answer, Horizon horizon) {
  uint64_t below_floor = 0;
  for (size_t i = 0; i < answer.size(); ++i) {
    const DocId d = answer[i];
    if (i > 0 && answer[i - 1] >= d) return DocError("unsorted at", d);
    if (d >= horizon.ceiling) return DocError("never-submitted", d);
    if (!Matches(corpus, query, d)) return DocError("non-matching", d);
    if (d < horizon.floor) ++below_floor;
  }
  const uint64_t expected =
      ExpectedBoolean(corpus, query, horizon.floor).size();
  if (below_floor != expected) {
    return "returned " + std::to_string(below_floor) + " of " +
           std::to_string(expected) + " acked matches";
  }
  return "";
}

std::string CheckVector(const Corpus& corpus, const Query& query,
                        const std::vector<duplex::ir::ScoredDoc>& answer,
                        Horizon horizon) {
  if (answer.size() > kTopK) return "more than k results";
  for (size_t i = 0; i < answer.size(); ++i) {
    const DocId d = answer[i].doc;
    if (d >= horizon.ceiling) return DocError("never-submitted", d);
    if (!Matches(corpus, query, d)) return DocError("non-matching", d);
    if (i > 0 && answer[i - 1].score < answer[i].score) {
      return DocError("score increases at", d);
    }
  }
  if (horizon.floor != horizon.ceiling) return "";

  const DocId total = horizon.ceiling;
  std::unordered_map<DocId, double> accumulators;
  for (size_t t = 0; t < query.keys.size(); ++t) {
    const std::vector<DocId>& list = corpus.Postings(query.keys[t]);
    const auto end = std::lower_bound(list.begin(), list.end(), total);
    const auto df = static_cast<double>(end - list.begin());
    if (df == 0) continue;
    const double contribution =
        query.weights[t] * std::log(1.0 + static_cast<double>(total) / df);
    for (auto it = list.begin(); it != end; ++it) {
      accumulators[*it] += contribution;
    }
  }
  std::vector<duplex::ir::ScoredDoc> expected;
  expected.reserve(accumulators.size());
  for (const auto& [doc, score] : accumulators) expected.push_back({doc, score});
  const size_t k = std::min(kTopK, expected.size());
  std::partial_sort(expected.begin(), expected.begin() + k, expected.end(),
                    [](const auto& a, const auto& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.doc < b.doc;
                    });
  expected.resize(k);
  if (expected.size() != answer.size()) {
    return "top-k has " + std::to_string(answer.size()) + " results, want " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < k; ++i) {
    const double tolerance = 1e-9 * std::max(1.0, std::abs(expected[i].score));
    if (expected[i].doc != answer[i].doc ||
        std::abs(expected[i].score - answer[i].score) > tolerance) {
      return "rank " + std::to_string(i) + " is doc " +
             std::to_string(answer[i].doc) + ", want " +
             std::to_string(expected[i].doc);
    }
  }
  return "";
}

}  // namespace perfbench
