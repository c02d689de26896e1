#include "util/metrics.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace duplex {
namespace {

TEST(CounterTest, StartsAtZeroAndSums) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, LastWriterWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.Value(), -1.25);
}

// Satellite: bucket boundaries are pure integer arithmetic and must be
// identical on every platform. Pin them exactly.
TEST(LatencyHistogramTest, StableBucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ull), 64u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(0), 0u);
  for (size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(b), 1ull << (b - 1))
        << "bucket " << b;
    const uint64_t upper = b >= 64 ? ~0ull : (1ull << b) - 1;
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(b), upper) << "bucket " << b;
    // Each value in the bucket maps back to it.
    EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::BucketLowerBound(b)),
              b);
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper), b);
  }
}

TEST(LatencyHistogramTest, RecordUpdatesExactStats) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  h.Record(10);
  h.Record(1000);
  h.Record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1013u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::BucketIndex(10)), 1u);
}

// Satellite: concurrent Record keeps count and sum exact (only the
// percentile is approximate by design).
TEST(LatencyHistogramTest, ConcurrentRecordExactSumAndCount) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(rng.Uniform(1 << 20));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Re-derive the sum: the per-thread streams are deterministic.
  uint64_t expected_sum = 0;
  uint64_t expected_max = 0;
  uint64_t expected_min = ~0ull;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    for (uint64_t i = 0; i < kPerThread; ++i) {
      const uint64_t v = rng.Uniform(1 << 20);
      expected_sum += v;
      expected_max = std::max(expected_max, v);
      expected_min = std::min(expected_min, v);
    }
  }
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.min(), expected_min);
  EXPECT_EQ(h.max(), expected_max);
}

// Exact percentile of `values`: sort, rank = p/100 * (n - 1), linear
// interpolation between the two neighbouring order statistics.
double ExactPercentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

// The log-bucketed percentile must land within one bucket of the exact
// percentile of the same data.
TEST(LatencyHistogramTest, PercentileWithinOneBucketOfExact) {
  LatencyHistogram log_hist;
  std::vector<double> exact;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Skewed latency-like distribution spanning many buckets.
    const uint64_t v = rng.Uniform(1 << (1 + rng.Uniform(24)));
    log_hist.Record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double approx = log_hist.Percentile(p);
    const double truth = ExactPercentile(exact, p);
    const size_t truth_bucket =
        LatencyHistogram::BucketIndex(static_cast<uint64_t>(truth));
    const size_t approx_bucket =
        LatencyHistogram::BucketIndex(static_cast<uint64_t>(approx));
    EXPECT_LE(approx_bucket >= truth_bucket ? approx_bucket - truth_bucket
                                            : truth_bucket - approx_bucket,
              1u)
        << "p" << p << ": approx " << approx << " vs exact " << truth;
  }
}

TEST(LatencyHistogramTest, PercentileExtremesAreExactMinMax) {
  LatencyHistogram h;
  h.Record(17);
  h.Record(900);
  h.Record(43);
  EXPECT_EQ(h.Percentile(0), 17.0);
  EXPECT_EQ(h.Percentile(100), 900.0);
  // Any percentile stays within [min, max].
  for (double p = 0; p <= 100; p += 12.5) {
    EXPECT_GE(h.Percentile(p), 17.0);
    EXPECT_LE(h.Percentile(p), 900.0);
  }
}

TEST(LatencyHistogramTest, MergeAddsBucketsAndTotals) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(5);
  a.Record(100);
  b.Record(2);
  b.Record(7000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 7107u);
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 7000u);
  EXPECT_EQ(a.bucket_count(LatencyHistogram::BucketIndex(7000)), 1u);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSeparatedByLabels) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("duplex_test_ops_total", "help");
  Counter* c2 = registry.GetCounter("duplex_test_ops_total");
  EXPECT_EQ(c1, c2);
  Counter* shard0 =
      registry.GetCounter("duplex_test_ops_total", "", "shard=\"0\"");
  Counter* shard1 =
      registry.GetCounter("duplex_test_ops_total", "", "shard=\"1\"");
  EXPECT_NE(shard0, shard1);
  EXPECT_NE(c1, shard0);
  EXPECT_EQ(registry.metric_count(), 3u);
  // A name registered as a counter cannot come back as another kind.
  EXPECT_EQ(registry.GetGauge("duplex_test_ops_total"), nullptr);
  EXPECT_EQ(registry.GetHistogram("duplex_test_ops_total"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotReflectsRecordedValues) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_test_a_total")->Inc(5);
  registry.GetGauge("duplex_test_g")->Set(0.75);
  LatencyHistogram* h = registry.GetHistogram("duplex_test_ns");
  h->Record(8);
  h->Record(1024);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("duplex_test_a_total"), 5u);
  EXPECT_EQ(snapshot.gauges.at("duplex_test_g"), 0.75);
  const MetricsSnapshot::HistogramView& view =
      snapshot.histograms.at("duplex_test_ns");
  EXPECT_EQ(view.count, 2u);
  EXPECT_EQ(view.sum, 1032u);
  EXPECT_EQ(view.min, 8u);
  EXPECT_EQ(view.max, 1024u);
  EXPECT_GE(view.Percentile(50), 8.0);
  EXPECT_LE(view.Percentile(50), 1024.0);
}

TEST(MetricsRegistryTest, LabeledSnapshotKeysUseExpositionForm) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_test_ops_total", "", "shard=\"3\"")->Inc(9);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("duplex_test_ops_total{shard=\"3\"}"), 9u);
}

TEST(MetricsRegistryTest, PrometheusExportIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_test_ops_total", "Operations")->Inc(3);
  registry.GetCounter("duplex_test_ops_total", "Operations", "shard=\"1\"")
      ->Inc(4);
  registry.GetGauge("duplex_test_fill", "Fill ratio")->Set(0.5);
  registry.GetHistogram("duplex_test_ns", "Latency")->Record(100);
  const std::string text = registry.ExportPrometheus();
  // One HELP/TYPE per family even with labeled series.
  auto count_occurrences = [&text](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_occurrences("# TYPE duplex_test_ops_total counter"), 1u);
  EXPECT_EQ(count_occurrences("# HELP duplex_test_ops_total Operations"), 1u);
  EXPECT_NE(text.find("duplex_test_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("duplex_test_ops_total{shard=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE duplex_test_fill gauge"), std::string::npos);
  EXPECT_NE(text.find("duplex_test_fill 0.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE duplex_test_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("duplex_test_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("duplex_test_ns_sum 100"), std::string::npos);
  EXPECT_NE(text.find("duplex_test_ns_count 1"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("duplex_test_", 0), 0u) << line;
  }
}

TEST(MetricsRegistryTest, JsonExportMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_test_ops_total")->Inc(3);
  registry.GetGauge("duplex_test_fill")->Set(0.25);
  registry.GetHistogram("duplex_test_ns")->Record(64);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"duplex_test_ops_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"duplex_test_fill\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"duplex_test_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(GlobalMetricsTest, NullByDefaultAndRestorable) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(GlobalCounter("duplex_test_x_total"), nullptr);
  EXPECT_EQ(GlobalGauge("duplex_test_x"), nullptr);
  EXPECT_EQ(GlobalLatency("duplex_test_x_ns"), nullptr);
  MetricsRegistry outer;
  MetricsRegistry inner;
  MetricsRegistry* prev = SetGlobalMetrics(&outer);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(GlobalMetrics(), &outer);
  EXPECT_NE(GlobalCounter("duplex_test_x_total"), nullptr);
  // Nested install returns the outer registry so scopes can restore.
  EXPECT_EQ(SetGlobalMetrics(&inner), &outer);
  EXPECT_EQ(GlobalMetrics(), &inner);
  EXPECT_EQ(SetGlobalMetrics(prev), &inner);
  EXPECT_EQ(GlobalMetrics(), nullptr);
}

TEST(ScopedLatencyTest, RecordsOnceAndToleratesNull) {
  LatencyHistogram h;
  {
    ScopedLatency timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  {
    ScopedLatency timer(nullptr);  // must be inert
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(LabelEscapingTest, EscapeLabelValueCoversExpositionSpecials) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(EscapeLabelValue(""), "");
}

TEST(LabelEscapingTest, LabelPairBuildsEscapedBody) {
  EXPECT_EQ(LabelPair("op", "ping"), "op=\"ping\"");
  EXPECT_EQ(LabelPair("q", "a\"b\nc\\d"), "q=\"a\\\"b\\nc\\\\d\"");
}

// Adversarial label values routed through LabelPair survive a full
// export round: the exposition stream stays line-structured and every
// escape is intact.
TEST(LabelEscapingTest, PrometheusExportEscapesAdversarialLabelValues) {
  MetricsRegistry registry;
  const std::string hostile = "evil\"} 42\ninjected_metric 1";
  registry.GetCounter("duplex_test_total", "h", LabelPair("q", hostile))
      ->Inc(3);
  registry
      .GetHistogram("duplex_test_ns", "h", LabelPair("q", "back\\slash"))
      ->Record(7);
  const std::string text = registry.ExportPrometheus();
  // The raw newline of the hostile value must not appear: no line in the
  // output may start with the injected series name.
  EXPECT_EQ(text.find("\ninjected_metric"), std::string::npos);
  EXPECT_NE(text.find("q=\"evil\\\"} 42\\ninjected_metric 1\""),
            std::string::npos);
  EXPECT_NE(text.find("duplex_test_ns_bucket{q=\"back\\\\slash\","),
            std::string::npos);
  // Every sample line still parses as `name{labels} value`: the
  // UNESCAPED quotes on each non-comment line must be balanced (a \"
  // inside a value is payload, not a delimiter).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    int unescaped = 0;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;  // skip the escaped character
      } else if (line[i] == '"') {
        ++unescaped;
      }
    }
    EXPECT_EQ(unescaped % 2, 0) << line;
  }
}

// Raw (pre-LabelPair) bodies with embedded newlines or stray backslashes
// are sanitized at export time, so legacy call sites cannot corrupt the
// stream either.
TEST(LabelEscapingTest, ExporterSanitizesHandAssembledLabelBodies) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_raw_total", "h", "k=\"raw\nnewline\"")->Inc();
  registry.GetCounter("duplex_raw2_total", "h", "k=\"stray\\zig\"")->Inc();
  registry.GetCounter("duplex_raw3_total", "h", "k=\"ok\\nkept\"")->Inc();
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("k=\"raw\\nnewline\""), std::string::npos);
  EXPECT_NE(text.find("k=\"stray\\\\zig\""), std::string::npos);
  // An already-valid escape is left untouched (sanitizer is idempotent).
  EXPECT_NE(text.find("k=\"ok\\nkept\""), std::string::npos);
  EXPECT_EQ(text.find("raw\nnewline"), std::string::npos);
}

}  // namespace
}  // namespace duplex
