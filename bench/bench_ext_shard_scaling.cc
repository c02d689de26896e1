// Extension: word-partitioned sharding (core::ShardedIndex). Scales the
// paper's single dual-structure index across N shards — each with its own
// bucket store, long-list store, directory, and disk array — applying
// per-shard sub-batches in parallel while queries take only the owning
// shard's shared lock. Measures, for shards in {1, 2, 4, 8}:
//   - batch-apply wall clock over the full NetNews-like batch stream
//     (the total bucket space is divided across shards, so every
//     configuration indexes the identical corpus into the same total
//     resources), and
//   - query throughput sustained by reader threads *while* the batch
//     stream applies — the paper's 24x7 motivation quantified.
// Parallel speedup requires a multi-core host; per-shard work is fully
// independent, so apply wall clock is expected to scale until shards
// exceed cores.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_index.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table_writer.h"

int main() {
  using namespace duplex;

  const sim::BatchStream& stream = bench::SharedStream();
  const uint32_t readers = static_cast<uint32_t>(
      bench::EnvOr("DUPLEX_BENCH_READERS", 4));
  const uint64_t words = std::max<uint64_t>(1, stream.stats.total_words);

  TableWriter table({"shards", "apply wall (s)", "speedup", "io ops",
                     "postings", "query kops/s during apply"});
  double baseline_seconds = 0.0;
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    // Timed apply (no concurrent readers) for the clean speedup number.
    const sim::PolicyRunResult run = sim::RunPolicy(
        bench::BenchConfig(), stream.batches, core::Policy::NewZ(), shards);
    if (shards == 1) baseline_seconds = run.harness_seconds;
    std::cerr << "[bench] shards=" << shards << " applied in "
              << run.harness_seconds << "s\n";

    // Second pass: the same apply with reader threads hammering Locate on
    // random words the whole time; throughput = reads completed / apply
    // wall clock. Per-shard locks let readers proceed on every shard not
    // currently applying its sub-batch.
    core::ShardedIndex index(core::ShardedIndexOptions::Partition(
        bench::BenchConfig().ToIndexOptions(core::Policy::NewZ()), shards));
    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (uint32_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        Rng rng(r);
        uint64_t local = 0;
        while (!done.load(std::memory_order_relaxed)) {
          const WordId w = static_cast<WordId>(rng.Uniform(words));
          (void)index.Locate(w);
          ++local;
        }
        reads += local;
      });
    }
    Stopwatch watch;
    for (const text::BatchUpdate& batch : stream.batches) {
      DUPLEX_CHECK_OK(index.ApplyBatchUpdate(batch));
    }
    const double apply_seconds = watch.ElapsedSeconds();
    done = true;
    for (std::thread& t : threads) t.join();

    table.Row()
        .Cell(static_cast<uint64_t>(shards))
        .Cell(run.harness_seconds, 2)
        .Cell(baseline_seconds / run.harness_seconds, 2)
        .Cell(run.final_stats.io_ops)
        .Cell(run.final_stats.total_postings)
        .Cell(static_cast<double>(reads.load()) / apply_seconds / 1e3, 1);
  }
  table.PrintAscii(std::cout,
                   "Extension: shard scaling (new z policy, " +
                       std::to_string(readers) + " readers)");
  std::cout << "\nhardware threads: " << std::thread::hardware_concurrency()
            << "\n";
  return 0;
}
