#ifndef DUPLEX_CORE_INDEX_STATS_H_
#define DUPLEX_CORE_INDEX_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace duplex::core {

// Per-batch word categorization (paper Figure 7): of the words appearing
// in a batch update, how many were previously unseen, how many already sat
// in a bucket, and how many had long lists.
struct UpdateCategories {
  uint64_t new_words = 0;
  uint64_t bucket_words = 0;
  uint64_t long_words = 0;

  uint64_t total() const { return new_words + bucket_words + long_words; }
};

// Snapshot of index-wide statistics after an update. Produced per
// InvertedIndex shard store; a ShardedIndex produces one per shard and
// reduces them with MergeStats().
struct IndexStats {
  uint64_t updates_applied = 0;
  uint64_t total_postings = 0;
  uint64_t bucket_words = 0;
  uint64_t bucket_postings = 0;
  uint64_t long_words = 0;
  uint64_t long_postings = 0;
  uint64_t long_chunks = 0;
  uint64_t long_blocks = 0;
  double long_utilization = 1.0;    // paper Figure 9
  double avg_reads_per_list = 0.0;  // paper Figure 10
  double bucket_occupancy = 0.0;
  uint64_t io_ops = 0;  // cumulative trace events (paper Figure 8)
  uint64_t in_place_updates = 0;
  uint64_t append_opportunities = 0;
  // Buffer-pool accounting (zero when no cache is configured). Plain
  // counters, so merging is a field-wise sum; `cache_pinned_peak` sums
  // too (each shard pool pins independently, so the sum is the
  // worst-case simultaneous footprint).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_dirty_writebacks = 0;
  uint64_t cache_pinned_peak = 0;
  uint64_t cache_physical_reads = 0;
  uint64_t cache_physical_writes = 0;
  // How many per-shard snapshots this value aggregates (1 for a single
  // shard store). Carried so pairwise Merge() can recombine
  // `bucket_occupancy` (a per-snapshot mean) associatively.
  uint64_t stats_sources = 1;

  // Folds `other` into this snapshot. Counters sum; `updates_applied`
  // takes the max (every shard sees every batch, so they agree in a
  // healthy index); ratio metrics are recombined from their underlying
  // numerators/denominators: `long_utilization` weighted by long_blocks,
  // `avg_reads_per_list` by long_words, `bucket_occupancy` by
  // stats_sources (shards share one bucket geometry, so capacities are
  // equal). Associative: folding N snapshots in any grouping yields the
  // same result as MergeStats() over all N.
  void Merge(const IndexStats& other);

  // Pretty-printed JSON object covering every field.
  std::string ToJson() const;
};

// Where a word's list lives — input to the query cost model. Reported by
// every IndexReader and by each InvertedIndex shard store (aliased there),
// so the ir layer can speak it without the store type.
struct ListLocation {
  bool exists = false;
  bool is_long = false;
  uint64_t chunks = 0;  // read ops to fetch the list (1 for a bucket)
  uint64_t postings = 0;
  // Of `chunks`, how many are fully buffer-pool resident right now (their
  // reads would be logical-only). 0 when no cache is configured.
  uint64_t cached_chunks = 0;
};

// Reduces per-shard statistics into index-wide totals: a fold over
// IndexStats::Merge (the one canonical merge path — see its contract).
// Empty input yields a default IndexStats.
IndexStats MergeStats(const std::vector<IndexStats>& shards);

// Element-wise sum of per-shard category series. Shorter shard series are
// treated as zero-padded; the result has the length of the longest input.
std::vector<UpdateCategories> MergeCategories(
    const std::vector<std::vector<UpdateCategories>>& shards);

}  // namespace duplex::core

#endif  // DUPLEX_CORE_INDEX_STATS_H_
