// Race check (run under TSan by tools/ci.sh): many threads record into
// one shared MetricsRegistry + Tracer — through first-use registration,
// cached handles, and a full sharded batch apply — while readers export
// concurrently. Correctness of values is asserted where it is exact
// (counter and histogram totals); everything else is here for the
// sanitizer.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "sim/pipeline.h"
#include "util/metrics.h"
#include "util/tracer.h"

namespace duplex {
namespace {

TEST(ObservabilityStress, ConcurrentRegistrationRecordingAndExport) {
  MetricsRegistry registry;
  Tracer tracer(1 << 14);
  constexpr int kWriters = 6;
  constexpr int kOpsPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&registry, &tracer, t] {
      // Mix of a shared family and a per-thread labeled series, so both
      // handle reuse and fresh registration race with the exporters.
      Counter* shared = registry.GetCounter("duplex_test_shared_total");
      Counter* own = registry.GetCounter(
          "duplex_test_thread_total", "", "t=\"" + std::to_string(t) + "\"");
      LatencyHistogram* lat = registry.GetHistogram("duplex_test_ns");
      Gauge* gauge = registry.GetGauge("duplex_test_gauge");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Span outer = tracer.StartSpan("stress.outer");
        {
          Span inner = tracer.StartSpan("stress.inner");
          inner.AddAttr("i", static_cast<uint64_t>(i));
        }
        shared->Inc();
        own->Inc(2);
        lat->Record(static_cast<uint64_t>(i) * 3 + 1);
        gauge->Set(static_cast<double>(i));
      }
    });
  }
  std::thread exporter([&registry, &tracer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.ExportPrometheus();
      (void)registry.ExportJson();
      (void)registry.Snapshot();
      (void)tracer.Events();
      (void)tracer.ExportChromeTrace();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("duplex_test_shared_total"),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(snapshot.counters.at("duplex_test_thread_total{t=\"" +
                                   std::to_string(t) + "\"}"),
              2u * kOpsPerWriter);
  }
  const MetricsSnapshot::HistogramView& lat =
      snapshot.histograms.at("duplex_test_ns");
  EXPECT_EQ(lat.count, static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(tracer.size() + tracer.dropped(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter * 2);
}

// The real hot paths with recording on: a sharded index applying batches
// on worker threads (per-shard histograms, span nesting across threads)
// while query threads evaluate against it between updates.
TEST(ObservabilityStress, ShardedApplyAndQueriesWithRecordingOn) {
  MetricsRegistry registry;
  Tracer tracer(1 << 14);
  MetricsRegistry* prev_registry = SetGlobalMetrics(&registry);
  Tracer* prev_tracer = SetGlobalTracer(&tracer);
  {
    sim::SimConfig config;
    config.num_buckets = 64;
    config.bucket_capacity = 128;
    config.block_postings = 16;
    config.num_disks = 2;
    config.blocks_per_disk = 1 << 18;

    text::CorpusOptions corpus;
    corpus.num_updates = 4;
    corpus.docs_per_update = 100;
    corpus.word_universe = 8000;
    corpus.seed = 11;
    const sim::BatchStream stream = sim::GenerateBatches(corpus);

    core::ShardedIndex index(core::ShardedIndexOptions::Partition(
        config.ToIndexOptions(core::Policy::RecommendedUpdateOptimized()),
        /*num_shards=*/4, /*threads=*/4));
    for (const text::BatchUpdate& batch : stream.batches) {
      ASSERT_TRUE(index.ApplyBatchUpdate(batch).ok());
      // Queries run between applies from several threads at once; the
      // index is quiescent, so only the observability layer is racing.
      std::vector<std::thread> queriers;
      for (int q = 0; q < 4; ++q) {
        queriers.emplace_back([&index] {
          ir::BooleanQuery query;
          query.kind = ir::BooleanQuery::Kind::kTerm;
          query.term = "w42";
          for (int i = 0; i < 50; ++i) {
            ASSERT_TRUE(ir::QueryExecutor(index).EvaluateBoolean(query).ok());
          }
        });
      }
      for (auto& q : queriers) q.join();
    }
  }
  SetGlobalMetrics(prev_registry);
  SetGlobalTracer(prev_tracer);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("duplex_ir_queries_total"), 4u * 4 * 50);
  uint64_t shard_applies = 0;
  for (const auto& [name, view] : snapshot.histograms) {
    if (name.rfind("duplex_core_shard_apply_ns{", 0) == 0) {
      shard_applies += view.count;
    }
  }
  EXPECT_EQ(shard_applies, 4u * 4);  // 4 updates x 4 shards
}

}  // namespace
}  // namespace duplex
