#ifndef DUPLEX_IR_VECTOR_QUERY_H_
#define DUPLEX_IR_VECTOR_QUERY_H_

#include <string>
#include <vector>

#include "util/types.h"

namespace duplex::ir {

// Vector-space retrieval (the paper's vector IRM, Section 5.2.1: queries
// derived from documents, typically >100 words biased toward frequent
// words). Scoring is tf-idf-lite: each query term contributes its weight x
// idf to every document containing it, accumulated over all terms.
struct VectorQuery {
  struct TermWeight {
    std::string term;
    double weight = 1.0;
  };
  std::vector<TermWeight> terms;
};

struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

struct VectorQueryResult {
  std::vector<ScoredDoc> top;  // descending score, then ascending doc id
  uint64_t read_ops = 0;
  uint64_t postings_read = 0;
  uint64_t missing_terms = 0;
  // Of read_ops, how many were buffer-pool resident at evaluation time —
  // charged by the same CostAccumulator as boolean queries, so identical
  // term sequences report identical costs across both query kinds.
  uint64_t cached_read_ops = 0;
};

}  // namespace duplex::ir

#endif  // DUPLEX_IR_VECTOR_QUERY_H_
