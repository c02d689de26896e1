// Extension: buffer-pool effectiveness on the NetNews-style workload.
// Sweeps the pool size from disabled to 64 MiB under the whole z policy
// (the Figure 8 workload whose whole-list re-reads dominate read traffic)
// and reports, per size, the cumulative physical I/O of the update stream
// and the read cost of a sampled query workload split into physical and
// pool-resident ops. Machine-readable output goes to BENCH_cache.json so
// the sweep is trackable across revisions.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_index.h"
#include "ir/query_workload.h"
#include "util/table_writer.h"

namespace {

struct SweepPoint {
  uint64_t cache_mib = 0;
  uint64_t cache_blocks = 0;
  uint64_t io_ops = 0;             // logical trace events
  uint64_t physical_ops = 0;       // events that reach a disk
  uint64_t cached_ops = 0;         // reads served by the pool
  uint64_t physical_reads = 0;     // physical read events only
  double hit_rate = 0.0;           // pool block-probe hit rate
  uint64_t query_read_ops = 0;     // sampled workload, all list reads
  uint64_t query_cached_ops = 0;   // of those, pool-resident
};

}  // namespace

int main() {
  using namespace duplex;

  const core::Policy policy = core::Policy::WholeZ();
  const sim::BatchStream& stream = bench::SharedStream();
  constexpr int kBooleanQueries = 200;
  constexpr int kVectorQueries = 100;

  std::vector<SweepPoint> sweep;
  for (const uint64_t mib : {0ull, 1ull, 4ull, 16ull, 64ull}) {
    sim::SimConfig config = bench::BenchConfig();
    config.cache_blocks = mib * ((1024 * 1024) / config.block_size);

    Stopwatch watch;
    core::ShardedIndex index(core::ShardedIndexOptions::Partition(
        config.ToIndexOptions(policy), 1));
    for (const text::BatchUpdate& batch : stream.batches) {
      if (!index.ApplyBatchUpdate(batch).ok()) return 1;
    }

    SweepPoint point;
    point.cache_mib = mib;
    point.cache_blocks = config.cache_blocks;
    const storage::IoTrace trace = index.MergedTrace();
    point.io_ops = trace.CountOps();
    point.physical_ops = trace.CountPhysicalOps();
    point.cached_ops = trace.CountCachedOps();
    point.physical_reads = trace.CountPhysicalOps(storage::IoOp::kRead);
    const core::IndexStats stats = index.Stats();
    storage::CacheStats cache;
    cache.hits = stats.cache_hits;
    cache.misses = stats.cache_misses;
    point.hit_rate = cache.hit_rate();

    // Query side: the same sampled workload per size (fixed seed), costed
    // against the final layout and the pool's end-of-run residency.
    ir::QueryWorkloadGenerator generator(index, 4242);
    for (int q = 0; q < kBooleanQueries; ++q) {
      const auto cost =
          generator.EstimateCost(generator.SampleBooleanTerms(6));
      point.query_read_ops += cost.read_ops;
      point.query_cached_ops += cost.cached_read_ops;
    }
    for (int q = 0; q < kVectorQueries; ++q) {
      const auto cost =
          generator.EstimateCost(generator.SampleVectorTerms(120));
      point.query_read_ops += cost.read_ops;
      point.query_cached_ops += cost.cached_read_ops;
    }
    sweep.push_back(point);
    std::cerr << "[bench] cache " << mib << " MiB done in "
              << watch.ElapsedSeconds() << "s\n";
  }

  TableWriter table({"cache MiB", "io ops", "physical ops", "cached ops",
                     "physical reads", "hit rate", "query reads",
                     "query cached"});
  for (const SweepPoint& p : sweep) {
    table.Row()
        .Cell(p.cache_mib)
        .Cell(p.io_ops)
        .Cell(p.physical_ops)
        .Cell(p.cached_ops)
        .Cell(p.physical_reads)
        .Cell(p.hit_rate, 3)
        .Cell(p.query_read_ops)
        .Cell(p.query_cached_ops);
  }
  table.PrintAscii(std::cout,
                   "Extension: buffer-pool sweep, whole z policy "
                   "(cumulative update I/O + sampled query reads)");
  std::cout << "\nLogical io ops are size-invariant (the pool never "
               "changes what the index\nreads); physical ops fall as the "
               "whole-list re-read working set becomes\nresident.\n";

  std::FILE* json = std::fopen("BENCH_cache.json", "w");
  if (json == nullptr) {
    std::cerr << "[bench] cannot write BENCH_cache.json\n";
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"ext_cache_hit\",\n");
  std::fprintf(json, "  \"policy\": \"%s\",\n", policy.Name().c_str());
  std::fprintf(json,
               "  \"workload\": {\"updates\": %zu, \"total_postings\": "
               "%llu},\n",
               stream.batches.size(),
               static_cast<unsigned long long>(
                   stream.stats.total_postings));
  std::fprintf(json, "  \"block_size\": %llu,\n",
               static_cast<unsigned long long>(
                   bench::BenchConfig().block_size));
  std::fprintf(json, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        json,
        "    {\"cache_mib\": %llu, \"cache_blocks\": %llu, "
        "\"io_ops\": %llu, \"physical_ops\": %llu, \"cached_ops\": %llu, "
        "\"physical_reads\": %llu, \"hit_rate\": %.4f, "
        "\"query_read_ops\": %llu, \"query_cached_read_ops\": %llu}%s\n",
        static_cast<unsigned long long>(p.cache_mib),
        static_cast<unsigned long long>(p.cache_blocks),
        static_cast<unsigned long long>(p.io_ops),
        static_cast<unsigned long long>(p.physical_ops),
        static_cast<unsigned long long>(p.cached_ops),
        static_cast<unsigned long long>(p.physical_reads), p.hit_rate,
        static_cast<unsigned long long>(p.query_read_ops),
        static_cast<unsigned long long>(p.query_cached_ops),
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::cerr << "[bench] wrote BENCH_cache.json\n";
  return 0;
}
