#ifndef DUPLEX_IR_QUERY_EXECUTOR_H_
#define DUPLEX_IR_QUERY_EXECUTOR_H_

#include <string_view>
#include <vector>

#include "core/index_reader.h"
#include "ir/boolean_query.h"
#include "ir/query_eval.h"
#include "ir/vector_query.h"
#include "util/status.h"
#include "util/types.h"

namespace duplex::ir {

// Unified read-cost counters for one query evaluation. Every evaluator
// charges costs through this one type, so boolean and vector queries over
// the same terms report identical read_ops / cached_read_ops /
// postings_read — there is no second accounting path to drift.
struct CostAccumulator {
  uint64_t read_ops = 0;         // chunk/bucket reads to fetch all lists
  uint64_t cached_read_ops = 0;  // of those, buffer-pool resident
  uint64_t postings_read = 0;    // postings scanned
  uint64_t missing_terms = 0;    // terms with no inverted list

  // Charges one term lookup. Returns loc.exists so call sites can branch
  // on presence without re-testing.
  bool Observe(const core::ListLocation& loc) {
    if (!loc.exists) {
      ++missing_terms;
      return false;
    }
    read_ops += loc.chunks;
    cached_read_ops += loc.cached_chunks;
    postings_read += loc.postings;
    return true;
  }
};

// The one place queries are parsed, planned, and evaluated. An executor
// wraps any core::IndexReader — ShardedIndex, DeltaIndex, or a
// MergingReader overlay — and is the only query entry point in ir/.
// The executor borrows the reader (no ownership); it is cheap to
// construct per query or keep around.
//
// Instrumentation: boolean evaluations record the duplex_ir_* metric
// families and emit a sampled "ir.query" trace span exactly as the
// pre-executor evaluators did; vector evaluations stay unmetered apart
// from the per-result cost fields, preserving existing series.
class QueryExecutor {
 public:
  explicit QueryExecutor(const core::IndexReader& reader)
      : reader_(reader) {}

  const core::IndexReader& reader() const { return reader_; }

  // Boolean retrieval. Unknown terms evaluate to the empty list.
  Result<QueryResult> EvaluateBoolean(const BooleanQuery& query) const;
  // Convenience: parse + evaluate.
  Result<QueryResult> EvaluateBoolean(std::string_view query_text) const;

  // Vector-space retrieval: the k highest-scored documents, idf
  // calibrated by `total_docs` (pass reader().next_doc_id()).
  Result<VectorQueryResult> EvaluateVector(const VectorQuery& query,
                                           size_t k,
                                           uint64_t total_docs) const;

 private:
  Status EvalNode(const BooleanQuery& node, CostAccumulator* cost,
                  std::vector<DocId>* out) const;

  const core::IndexReader& reader_;
};

}  // namespace duplex::ir

#endif  // DUPLEX_IR_QUERY_EXECUTOR_H_
