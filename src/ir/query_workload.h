#ifndef DUPLEX_IR_QUERY_WORKLOAD_H_
#define DUPLEX_IR_QUERY_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/index_reader.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/types.h"

namespace duplex::ir {

// Samples query term sets matching the paper's two workload models
// (Section 5.2.1):
//  - boolean queries contain few words (< 10) biased toward infrequent
//    words ("frequently appearing words do not discriminate strongly
//    between documents") — modeled as uniform sampling over the
//    vocabulary, which is dominated by rare words;
//  - vector queries are derived from documents, contain many words
//    (> 100), and follow the frequency of words in documents — modeled as
//    sampling proportional to posting counts.
class QueryWorkloadGenerator {
 public:
  // Snapshots the reader's current word -> posting-count distribution.
  // Works over any core::IndexReader — ShardedIndex, a MergingReader
  // overlay — via ForEachWord + Locate; the word walk is
  // sorted, so the sampled sequences are deterministic for a given seed
  // regardless of the backend's internal iteration order.
  QueryWorkloadGenerator(const core::IndexReader& index, uint64_t seed);

  // Words with any inverted list right now.
  size_t vocabulary_size() const { return words_.size(); }

  std::vector<WordId> SampleBooleanTerms(size_t num_terms);
  std::vector<WordId> SampleVectorTerms(size_t num_terms);

  // Disk cost of fetching the given words' lists under the current layout.
  struct Cost {
    uint64_t read_ops = 0;
    uint64_t postings = 0;
    uint64_t long_lists = 0;
    // Of read_ops, how many are buffer-pool resident right now (no arm
    // movement). 0 without a cache; bucket reads never count (the bucket
    // region bypasses the pool).
    uint64_t cached_read_ops = 0;
    // Wall-clock of this estimate (the directory/bucket lookups a real
    // query would do). Also recorded into the installed metrics registry
    // as duplex_ir_query_cost_ns, so workload benches can report
    // p50/p95/p99 alongside mean cost.
    uint64_t estimate_ns = 0;
  };
  Cost EstimateCost(const std::vector<WordId>& words) const;

 private:
  const core::IndexReader& index_;
  Rng rng_;
  std::vector<WordId> words_;
  std::vector<uint64_t> cumulative_postings_;  // prefix sums over words_
  LatencyHistogram* m_cost_ns_ = nullptr;  // fetched at construction
};

}  // namespace duplex::ir

#endif  // DUPLEX_IR_QUERY_WORKLOAD_H_
