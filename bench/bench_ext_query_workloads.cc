// Extension ([10], referenced from Section 5.2.1): query cost under the
// boolean and vector information-retrieval models, per policy. Boolean
// queries sample few, mostly-infrequent words (mostly bucket hits: ~1
// read each); vector queries sample many frequent words (mostly long
// lists), so the layout policy dominates their cost.
#include <iostream>

#include "bench/bench_common.h"
#include "core/sharded_index.h"
#include "ir/query_workload.h"
#include "util/metrics.h"
#include "util/table_writer.h"

int main() {
  using namespace duplex;

  constexpr int kQueries = 200;
  TableWriter table({"policy", "boolean reads/query", "boolean long-list%",
                     "vector reads/query", "vector long-list%",
                     "cost p50 us", "cost p95 us", "cost p99 us"});
  for (const auto& [label, policy] : bench::FigurePolicies()) {
    // Build the final index under this policy, then sample workloads.
    sim::SimConfig config = bench::BenchConfig();
    core::ShardedIndex index(core::ShardedIndexOptions::Partition(
        config.ToIndexOptions(policy), 1));
    for (const text::BatchUpdate& batch : bench::SharedStream().batches) {
      if (!index.ApplyBatchUpdate(batch).ok()) return 1;
    }
    // Per-policy registry so the generator's duplex_ir_query_cost_ns
    // histogram gives this policy's own latency percentiles. Installed
    // before the generator: it caches the handle at construction.
    MetricsRegistry registry;
    MetricsRegistry* previous = SetGlobalMetrics(&registry);
    ir::QueryWorkloadGenerator generator(index, 4242);
    double bool_reads = 0;
    double bool_long = 0;
    double bool_terms = 0;
    double vec_reads = 0;
    double vec_long = 0;
    double vec_terms = 0;
    for (int q = 0; q < kQueries; ++q) {
      const auto bool_words = generator.SampleBooleanTerms(6);
      const auto bool_cost = generator.EstimateCost(bool_words);
      bool_reads += static_cast<double>(bool_cost.read_ops);
      bool_long += static_cast<double>(bool_cost.long_lists);
      bool_terms += static_cast<double>(bool_words.size());
      const auto vec_words = generator.SampleVectorTerms(120);
      const auto vec_cost = generator.EstimateCost(vec_words);
      vec_reads += static_cast<double>(vec_cost.read_ops);
      vec_long += static_cast<double>(vec_cost.long_lists);
      vec_terms += static_cast<double>(vec_words.size());
    }
    SetGlobalMetrics(previous);
    const MetricsSnapshot snapshot = registry.Snapshot();
    const MetricsSnapshot::HistogramView& cost =
        snapshot.histograms.at("duplex_ir_query_cost_ns");
    table.Row()
        .Cell(label)
        .Cell(bool_reads / kQueries, 2)
        .Cell(100.0 * bool_long / bool_terms, 1)
        .Cell(vec_reads / kQueries, 1)
        .Cell(100.0 * vec_long / vec_terms, 1)
        .Cell(cost.Percentile(50) / 1e3, 2)
        .Cell(cost.Percentile(95) / 1e3, 2)
        .Cell(cost.Percentile(99) / 1e3, 2);
    std::cerr << "[bench] workload for '" << label << "' done\n";
  }
  table.PrintAscii(std::cout,
                   "Extension: query workload cost per policy (200 "
                   "boolean x 6 terms, 200 vector x 120 terms)");
  std::cout << "\nBoolean queries are nearly layout-insensitive (bucket "
               "hits); vector queries\nmagnify the Figure 10 differences "
               "because they touch many long lists.\nCost percentiles are "
               "wall-clock of the per-query directory/bucket lookups\n"
               "(duplex_ir_query_cost_ns, both workloads pooled).\n";
  return 0;
}
