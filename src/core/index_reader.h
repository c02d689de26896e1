#ifndef DUPLEX_CORE_INDEX_READER_H_
#define DUPLEX_CORE_INDEX_READER_H_

#include <functional>
#include <string_view>
#include <vector>

#include "core/index_stats.h"
#include "util/status.h"
#include "util/types.h"

namespace duplex::core {

// The one read-path seam every query evaluator targets. An IndexReader is
// anything that can resolve a term to a posting list and price that
// fetch: the ShardedIndex (the on-disk index; one shard is the paper's
// single index), the in-memory DeltaIndex (the one in-memory tier, fed by
// LiveIndex), and MergingReader, which overlays N readers into one view.
// ir::QueryExecutor is written against this interface only, so a new
// backend (a network-attached index, a checkpoint reader) plugs into
// every evaluator by implementing five methods.
//
// Contracts shared by all implementations:
//  - Snapshot semantics are per-call: each Locate/GetPostings sees some
//    consistent state of the reader; implementations with internal
//    locking (ShardedIndex) guarantee per-term atomicity, exactly the
//    granularity the previous per-index evaluators provided.
//  - GetPostings returns doc ids strictly ascending with deleted
//    documents already filtered, or NotFound when the term has no list.
//  - Locate never fails; a missing term yields `exists == false`. Its
//    ListLocation carries the cost counters (chunk reads, buffer-pool
//    resident chunks, postings) that feed ir::CostAccumulator.
class IndexReader {
 public:
  virtual ~IndexReader() = default;

  // --- Term lookup -------------------------------------------------------

  // Where the word's list lives and what fetching it costs.
  virtual ListLocation Locate(WordId word) const = 0;
  virtual ListLocation Locate(std::string_view word) const = 0;

  // --- Postings access ---------------------------------------------------

  // The word's full posting list (ascending, deletions filtered).
  // NotFound when the word has no list; FailedPrecondition when the
  // backend stores no payloads (count-only mode).
  virtual Result<std::vector<DocId>> GetPostings(WordId word) const = 0;
  virtual Result<std::vector<DocId>> GetPostings(
      std::string_view word) const = 0;

  // --- Snapshot extent ---------------------------------------------------

  // One more than the largest doc id this reader can return — the idf
  // calibration for vector scoring and the doc-id horizon a delta/disk
  // merge must agree on.
  virtual DocId next_doc_id() const = 0;

  // --- Enumeration -------------------------------------------------------

  // Calls `fn` once per word that currently has a list (any order, each
  // word exactly once). Workload generators build their sampling
  // distributions from this instead of reaching into backend internals.
  virtual void ForEachWord(const std::function<void(WordId)>& fn) const = 0;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_INDEX_READER_H_
