#ifndef DUPLEX_IR_QUERY_EVAL_H_
#define DUPLEX_IR_QUERY_EVAL_H_

#include <vector>

#include "util/types.h"

namespace duplex::ir {

// Sorted-list set operations — the merge primitives the paper relies on
// ("implementations of IR systems indexes merge inverted lists to compute
// the answer to a boolean query", Section 3). Inputs must be ascending.
std::vector<DocId> Intersect(const std::vector<DocId>& a,
                             const std::vector<DocId>& b);
std::vector<DocId> Union(const std::vector<DocId>& a,
                         const std::vector<DocId>& b);
std::vector<DocId> Difference(const std::vector<DocId>& a,
                              const std::vector<DocId>& b);

// Result of evaluating a query, with the disk cost it would incur.
struct QueryResult {
  std::vector<DocId> docs;
  uint64_t read_ops = 0;       // chunk/bucket reads to fetch all lists
  uint64_t postings_read = 0;  // postings scanned
  uint64_t missing_terms = 0;  // terms with no inverted list
  // Of read_ops, how many were buffer-pool resident at evaluation time
  // (logical reads that cost no disk arm movement). 0 without a cache.
  uint64_t cached_read_ops = 0;
};

}  // namespace duplex::ir

#endif  // DUPLEX_IR_QUERY_EVAL_H_
