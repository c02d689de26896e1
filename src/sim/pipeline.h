#ifndef DUPLEX_SIM_PIPELINE_H_
#define DUPLEX_SIM_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/long_list_store.h"
#include "core/policy.h"
#include "core/sharded_index.h"
#include "storage/io_trace.h"
#include "storage/trace_executor.h"
#include "text/batch.h"
#include "text/corpus_generator.h"

namespace duplex::sim {

// Base (non-policy) parameters of one experiment — the paper's Table 4.
// Several of the paper's exact values are illegible in the available scan;
// these defaults are calibrated so the qualitative milestones of the paper
// hold (see DESIGN.md).
struct SimConfig {
  uint32_t num_buckets = 8192;      // Buckets
  uint64_t bucket_capacity = 512;   // BucketSize (units)
  uint64_t block_postings = 128;    // BlockPosting
  uint64_t bucket_unit_bytes = 16;  // on-disk bytes per bucket unit
  uint32_t num_disks = 4;           // Disks
  uint64_t blocks_per_disk = 1 << 21;
  uint64_t block_size = 4096;       // BlockSize (bytes)
  uint64_t buffer_blocks = 128;     // BufferBlock (coalescing cap)

  // Buffer pool over the disk array (accounting-only in the count-only
  // pipeline). 0 frames disables it; long-list reads that hit become
  // `cached` trace events the executor skips.
  uint64_t cache_blocks = 0;
  storage::CacheMode cache_mode = storage::CacheMode::kWriteThrough;
  storage::CacheEviction cache_eviction = storage::CacheEviction::kClock;
  uint32_t cache_lock_shards = 8;

  // Fault injection + integrity (materialized runs only; the count-only
  // pipeline issues no physical device I/O to corrupt). Probabilities are
  // per physical op; 0 disables. See storage::FaultScheduleOptions.
  uint64_t fault_seed = 1;
  double fault_read_error_prob = 0.0;
  double fault_write_error_prob = 0.0;
  double fault_bit_flip_prob = 0.0;
  uint64_t fault_crash_at_op = 0;
  bool device_checksums = false;

  // Online long-list compaction, run after every batch flush when enabled
  // (core::CompactionOptions; the per-round I/O lands in that batch's
  // trace update so cumulative_io_ops charges it to the triggering batch).
  core::CompactionOptions compaction;

  // When non-empty, each RunPolicy call installs a fresh per-run
  // MetricsRegistry + Tracer (sim::ObservabilityScope) and writes
  // metrics.prom, metrics.json, and trace.json into this directory before
  // returning. Empty (the default) records nothing and costs nothing.
  std::string observability_dir;

  // Optional per-update query-cost probe: after each batch apply, sample
  // `query_probe_queries` boolean-style term sets (each of
  // `query_probe_terms` terms) through an ir::QueryWorkloadGenerator over
  // the index's reader interface, and record the mean estimated read cost
  // into the run result. The probe issues no device I/O — it reads the
  // directory and buckets exactly as a real query planner would — so
  // traces and paper-figure series are bit-identical with it on or off.
  // 0 queries (the default) disables the probe entirely.
  uint32_t query_probe_queries = 0;
  uint32_t query_probe_terms = 4;
  uint64_t query_probe_seed = 7;

  core::IndexOptions ToIndexOptions(const core::Policy& policy) const;
  storage::ExecutorOptions ToExecutorOptions(
      const storage::DiskModelParams& disk =
          storage::DiskModelParams::Seagate1993()) const;
};

// Per-update statistics of the generated corpus, plus Table 1 aggregates.
struct CorpusStats {
  std::vector<uint64_t> docs_per_update;
  std::vector<uint64_t> postings_per_update;
  std::vector<uint64_t> distinct_words_per_update;
  uint64_t total_docs = 0;
  uint64_t total_postings = 0;
  uint64_t total_words = 0;       // distinct words over the whole corpus
  uint64_t raw_text_bytes = 0;    // estimated
  double avg_postings_per_word = 0.0;
  // Frequent = top `frequent_fraction` of words by posting count.
  double frequent_fraction = 0.02;
  uint64_t frequent_words = 0;
  uint64_t infrequent_words = 0;
  double frequent_posting_share = 0.0;  // fraction of postings
};

// The invert-index stage of paper Figure 3 run over the whole synthetic
// corpus once: daily batch updates (word-occurrence pairs) that every
// policy run then consumes. Word ids are dense in first-seen order.
struct BatchStream {
  std::vector<text::BatchUpdate> batches;
  CorpusStats stats;
};

// Generates all batches for `corpus` (count-only path).
BatchStream GenerateBatches(const text::CorpusOptions& corpus);

// Result of pushing one batch stream through the index under one policy
// (the compute-buckets + compute-disks stages fused, since our index
// performs both). With several shards every number is merged across them.
struct PolicyRunResult {
  core::Policy policy;
  // Series indexed by update ("index after update").
  std::vector<uint64_t> cumulative_io_ops;   // Figure 8
  std::vector<double> utilization;           // Figure 9
  std::vector<double> avg_reads_per_list;    // Figure 10
  std::vector<uint64_t> long_words;
  std::vector<core::UpdateCategories> categories;  // Figure 7
  core::IndexStats final_stats;             // MergeStats over the shards
  std::vector<core::IndexStats> shard_stats;
  core::LongListStore::Counters counters;
  // Accumulated compaction totals (all zero when compaction is off).
  core::CompactionStats compaction;
  // Replayable by TraceExecutor (Figures 13/14); the deterministic merged
  // trace (global disk ids) when sharded.
  storage::IoTrace trace;
  double harness_seconds = 0.0;
  // Query-cost probe series, one entry per update (empty when
  // SimConfig::query_probe_queries == 0): mean read ops per sampled query
  // after that update, and the cached fraction of those reads.
  std::vector<double> probe_read_ops;
  std::vector<double> probe_cached_fraction;
};

// Runs one policy over a pre-generated batch stream through a
// core::ShardedIndex of `num_shards` shards. The total bucket space of
// `config` is divided across the shards (ShardedIndexOptions::Partition);
// `threads` == 0 uses one worker per shard. One shard is the paper's
// single index: its series and trace are those of one InvertedIndex.
PolicyRunResult RunPolicy(const SimConfig& config,
                          const std::vector<text::BatchUpdate>& batches,
                          const core::Policy& policy,
                          uint32_t num_shards = 1, uint32_t threads = 0);

// Replays a run's trace through the disk model (the exercise-disks stage).
storage::ExecutionResult ExerciseDisks(
    const SimConfig& config, const storage::IoTrace& trace,
    const storage::DiskModelParams& disk =
        storage::DiskModelParams::Seagate1993());

// The rebuild-from-scratch baseline of traditional systems (paper
// Sections 1 and 6): after each batch the entire index is rebuilt, laying
// every list out sequentially and contiguously. Returns the I/O trace of
// the rebuild writes (reading the accumulated raw text is charged as
// sequential reads too).
storage::IoTrace RebuildBaselineTrace(const SimConfig& config,
                                      const std::vector<uint64_t>&
                                          cumulative_postings);

}  // namespace duplex::sim

#endif  // DUPLEX_SIM_PIPELINE_H_
