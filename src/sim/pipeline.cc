#include "sim/pipeline.h"

#include <algorithm>
#include <unordered_map>

#include "ir/query_workload.h"
#include "sim/observability.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace duplex::sim {
namespace {

// One probe round: samples `queries` term sets from a fresh generator
// over `reader` (seeded per update so the sampled words track the growing
// vocabulary deterministically) and appends the mean read cost and cached
// fraction to the series.
void RunQueryProbe(const SimConfig& config, const core::IndexReader& reader,
                   uint64_t update, std::vector<double>* probe_read_ops,
                   std::vector<double>* probe_cached_fraction) {
  if (config.query_probe_queries == 0) return;
  ir::QueryWorkloadGenerator generator(
      reader, config.query_probe_seed + update);
  uint64_t read_ops = 0;
  uint64_t cached = 0;
  for (uint32_t q = 0; q < config.query_probe_queries; ++q) {
    const ir::QueryWorkloadGenerator::Cost cost = generator.EstimateCost(
        generator.SampleBooleanTerms(config.query_probe_terms));
    read_ops += cost.read_ops;
    cached += cost.cached_read_ops;
  }
  probe_read_ops->push_back(static_cast<double>(read_ops) /
                            static_cast<double>(config.query_probe_queries));
  probe_cached_fraction->push_back(
      read_ops == 0 ? 0.0
                    : static_cast<double>(cached) /
                          static_cast<double>(read_ops));
}

}  // namespace

core::IndexOptions SimConfig::ToIndexOptions(
    const core::Policy& policy) const {
  core::IndexOptions opts;
  opts.buckets.num_buckets = num_buckets;
  opts.buckets.bucket_capacity = bucket_capacity;
  opts.policy = policy;
  opts.block_postings = block_postings;
  opts.bucket_unit_bytes = bucket_unit_bytes;
  opts.disks.num_disks = num_disks;
  opts.disks.blocks_per_disk = blocks_per_disk;
  opts.disks.block_size_bytes = block_size;
  opts.materialize = false;
  opts.record_trace = true;
  opts.cache.capacity_blocks = cache_blocks;
  opts.cache.mode = cache_mode;
  opts.cache.eviction = cache_eviction;
  opts.cache.lock_shards = cache_lock_shards;
  opts.disks.fault.seed = fault_seed;
  opts.disks.fault.read_error_probability = fault_read_error_prob;
  opts.disks.fault.write_error_probability = fault_write_error_prob;
  opts.disks.fault.bit_flip_probability = fault_bit_flip_prob;
  opts.disks.fault.crash_at_op = fault_crash_at_op;
  opts.disks.checksums = device_checksums;
  opts.compaction = compaction;
  return opts;
}

storage::ExecutorOptions SimConfig::ToExecutorOptions(
    const storage::DiskModelParams& disk) const {
  storage::ExecutorOptions opts;
  opts.disk = disk;
  opts.disk.block_size_bytes = block_size;
  opts.num_disks = num_disks;
  opts.buffer_blocks = buffer_blocks;
  return opts;
}

BatchStream GenerateBatches(const text::CorpusOptions& corpus) {
  BatchStream stream;
  text::CorpusGenerator generator(corpus);
  text::KeyVocabulary vocabulary;
  std::unordered_map<WordId, uint64_t> word_postings;
  for (uint32_t u = 0; u < corpus.num_updates; ++u) {
    const std::vector<text::SyntheticDoc> docs = generator.GenerateUpdate(u);
    uint64_t postings = 0;
    uint64_t raw = 0;
    for (const auto& d : docs) {
      postings += d.size();
      raw += text::CorpusGenerator::EstimatedRawBytes(d);
    }
    text::BatchUpdate batch =
        text::CorpusGenerator::ToBatchUpdate(docs, &vocabulary);
    for (const auto& pair : batch.pairs) {
      word_postings[pair.word] += pair.count;
    }
    stream.stats.docs_per_update.push_back(docs.size());
    stream.stats.postings_per_update.push_back(postings);
    stream.stats.distinct_words_per_update.push_back(batch.pairs.size());
    stream.stats.total_docs += docs.size();
    stream.stats.total_postings += postings;
    stream.stats.raw_text_bytes += raw;
    stream.batches.push_back(std::move(batch));
  }
  stream.stats.total_words = vocabulary.size();
  if (stream.stats.total_words > 0) {
    stream.stats.avg_postings_per_word =
        static_cast<double>(stream.stats.total_postings) /
        static_cast<double>(stream.stats.total_words);
  }
  // Frequent-word concentration (paper Table 1): sort words by posting
  // count, take the top frequent_fraction.
  std::vector<uint64_t> counts;
  counts.reserve(word_postings.size());
  for (const auto& [word, count] : word_postings) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const uint64_t frequent =
      static_cast<uint64_t>(stream.stats.frequent_fraction *
                            static_cast<double>(counts.size()));
  uint64_t frequent_postings = 0;
  for (uint64_t i = 0; i < frequent && i < counts.size(); ++i) {
    frequent_postings += counts[i];
  }
  stream.stats.frequent_words = frequent;
  stream.stats.infrequent_words = counts.size() - frequent;
  stream.stats.frequent_posting_share =
      stream.stats.total_postings == 0
          ? 0.0
          : static_cast<double>(frequent_postings) /
                static_cast<double>(stream.stats.total_postings);
  return stream;
}

PolicyRunResult RunPolicy(const SimConfig& config,
                          const std::vector<text::BatchUpdate>& batches,
                          const core::Policy& policy, uint32_t num_shards,
                          uint32_t threads) {
  Stopwatch watch;
  PolicyRunResult result;
  result.policy = policy;
  // Before the index: instrumented components cache metric handles at
  // construction, and the scope's exporter runs after `index` dies.
  ObservabilityScope observability(config.observability_dir);
  core::ShardedIndex index(core::ShardedIndexOptions::Partition(
      config.ToIndexOptions(policy), num_shards, threads));
  uint64_t update = 0;
  for (const text::BatchUpdate& batch : batches) {
    DUPLEX_CHECK_OK(index.ApplyBatchUpdate(batch));
    const core::IndexStats stats = index.Stats();
    result.cumulative_io_ops.push_back(stats.io_ops);
    result.utilization.push_back(stats.long_utilization);
    result.avg_reads_per_list.push_back(stats.avg_reads_per_list);
    result.long_words.push_back(stats.long_words);
    RunQueryProbe(config, index, update++, &result.probe_read_ops,
                  &result.probe_cached_fraction);
  }
  result.categories = index.MergedCategories();
  result.shard_stats = index.ShardStats();
  result.final_stats = core::MergeStats(result.shard_stats);
  for (uint32_t s = 0; s < num_shards; ++s) {
    index.shard(s).WithRead([&](const core::InvertedIndex& shard) {
      result.counters.Merge(shard.long_list_store().counters());
    });
  }
  result.compaction = index.compaction_totals();
  result.trace = index.MergedTrace();
  result.harness_seconds = watch.ElapsedSeconds();
  return result;
}

storage::ExecutionResult ExerciseDisks(const SimConfig& config,
                                       const storage::IoTrace& trace,
                                       const storage::DiskModelParams& disk) {
  storage::TraceExecutor executor(config.ToExecutorOptions(disk));
  return executor.Execute(trace);
}

storage::IoTrace RebuildBaselineTrace(
    const SimConfig& config,
    const std::vector<uint64_t>& cumulative_postings) {
  storage::IoTrace trace;
  for (const uint64_t postings : cumulative_postings) {
    // Read the accumulated batch data (sequential, striped) and write the
    // full index contiguously across the disks. Lists are laid out with no
    // gaps, so this is pure sequential I/O in BufferBlock-sized requests.
    const uint64_t total_blocks =
        (postings + config.block_postings - 1) / config.block_postings;
    const uint64_t per_disk =
        (total_blocks + config.num_disks - 1) / config.num_disks;
    for (storage::DiskId d = 0; d < config.num_disks; ++d) {
      // Alternate between two shadow areas so reads and writes do not
      // overlap; block addresses only matter for sequentiality.
      trace.Add({storage::IoOp::kRead, storage::IoTag::kLongList, 0,
                 postings, d, 0, per_disk});
      trace.Add({storage::IoOp::kWrite, storage::IoTag::kLongList, 0,
                 postings, d, per_disk, per_disk});
    }
    trace.EndUpdate();
  }
  return trace;
}

}  // namespace duplex::sim
