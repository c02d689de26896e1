#ifndef DUPLEX_CORE_COMPACTOR_H_
#define DUPLEX_CORE_COMPACTOR_H_

#include <cstdint>
#include <vector>

#include "core/directory.h"
#include "util/status.h"
#include "util/types.h"

namespace duplex::core {

class LongListStore;

// Trigger policy for the online space-reclamation subsystem. The paper's
// long-list quality metrics — internal utilization (Figure 9) and average
// read operations per long list (Figure 10) — degrade monotonically under
// Style=new with generous Alloc reservations; the compactor wins both
// back by merging a fragmented list's chunks into one right-sized chunk.
struct CompactionOptions {
  // When true, every batch apply ends with one bounded compaction round
  // (after the bucket/directory flush, before the trace update closes).
  bool enabled = false;
  // A list qualifies when it spans at least this many chunks...
  uint64_t min_chunks = 2;
  // ...or its own utilization (postings / allocated posting capacity)
  // falls below this, i.e. the reserved tail it will never revisit is
  // dead space worth reclaiming.
  double min_utilization = 0.9;
  // At most this many lists are rewritten per round; the rest stay for
  // the next round (stats report more_pending). 0 means unlimited.
  uint64_t max_lists_per_round = 64;
  // Upper bound on the estimated physical ops (chunk reads + the merged
  // write) one round may spend. 0 means unlimited. At least one list is
  // compacted per round if any qualifies, so progress is guaranteed even
  // under a budget smaller than the cheapest candidate.
  uint64_t io_budget = 0;
};

// What one compaction round (or an accumulation of rounds) did.
struct CompactionStats {
  uint64_t rounds = 0;
  uint64_t lists_examined = 0;   // directory entries scored
  uint64_t candidates = 0;       // entries that qualified
  uint64_t lists_compacted = 0;  // entries actually rewritten
  uint64_t chunks_before = 0;    // chunks of the rewritten lists
  uint64_t chunks_after = 0;
  uint64_t blocks_before = 0;    // blocks of the rewritten lists
  uint64_t blocks_after = 0;
  uint64_t postings_rewritten = 0;
  uint64_t read_ops = 0;   // physical ops spent compacting
  uint64_t write_ops = 0;
  // Qualified lists were left for the next round (budget or cap hit).
  bool more_pending = false;

  uint64_t blocks_reclaimed() const {
    return blocks_before > blocks_after ? blocks_before - blocks_after : 0;
  }
  void Merge(const CompactionStats& other);
};

// Per-word fragmentation scoring plus the bounded round driver. Works on
// LongListStore chunk metadata only, so it runs identically in the
// count-only simulation pipeline and the materialized query path.
//
// Crash safety: a rewrite frees old chunks onto the store's RELEASE list
// (deferred to FlushEpoch) and changes only the physical layout — logical
// postings are untouched. A crash mid-round is therefore recovered by the
// ordinary full-rebuild WAL replay (ShardedIndex::ReplayLogged from epoch
// 0), so no compaction state is logged.
class Compactor {
 public:
  struct Candidate {
    WordId word = 0;
    uint64_t score = 0;    // higher = more worth compacting
    uint64_t est_ops = 0;  // chunk reads + one merged write
  };

  // `store` must outlive the compactor.
  Compactor(const CompactionOptions& options, LongListStore* store);

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  const CompactionOptions& options() const { return options_; }

  // Scores every directory entry and returns the qualifying lists, most
  // fragmented first (deterministic: ties break on ascending word id).
  // `examined` (optional) receives the number of entries scored.
  std::vector<Candidate> SelectCandidates(uint64_t* examined) const;

  // One bounded round: select, rewrite up to the caps, account. Freed
  // chunks land on the store's RELEASE list; the caller decides when to
  // FlushEpoch (the index layer does it right after the round).
  Result<CompactionStats> RunRound();

 private:
  // Fragmentation score of one list; 0 = not a candidate.
  uint64_t Score(const LongList& list) const;

  CompactionOptions options_;
  LongListStore* store_;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_COMPACTOR_H_
