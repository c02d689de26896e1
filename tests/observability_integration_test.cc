// End-to-end checks of the observability layer: a sim run with
// SimConfig::observability_dir set must leave a valid Prometheus text
// file, a JSON snapshot, and a Perfetto-loadable Chrome trace behind,
// with metric families spanning the core, storage, and ir layers.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_log.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "sim/observability.h"
#include "sim/pipeline.h"
#include "util/metrics.h"
#include "util/tracer.h"

namespace duplex::sim {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string TempDir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / leaf;
  fs::remove_all(dir);
  return dir.string();
}

// Distinct metric family names in a Prometheus exposition ("# TYPE <name>
// <kind>" lines), plus a syntax walk: every non-comment line must be
// "name[{labels}] value" with a parseable value.
std::set<std::string> ValidatePrometheus(const std::string& text) {
  std::set<std::string> families;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      std::string kind;
      fields >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      EXPECT_TRUE(families.insert(name).second)
          << "duplicate TYPE for " << name;
      continue;
    }
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# HELP ", 0), 0u) << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_EQ(series.rfind("duplex_", 0), 0u) << line;
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
    const size_t brace = series.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
  return families;
}

TEST(ObservabilityScopeTest, EmptyDirIsInert) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  ObservabilityScope scope("");
  EXPECT_FALSE(scope.enabled());
  EXPECT_EQ(scope.registry(), nullptr);
  EXPECT_EQ(scope.tracer(), nullptr);
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(GlobalTracer(), nullptr);
  EXPECT_TRUE(scope.Export().ok());
}

TEST(ObservabilityScopeTest, InstallsRestoresAndWritesFiles) {
  const std::string dir = TempDir("duplex_obs_scope");
  {
    ObservabilityScope scope(dir);
    ASSERT_TRUE(scope.enabled());
    EXPECT_EQ(GlobalMetrics(), scope.registry());
    EXPECT_EQ(GlobalTracer(), scope.tracer());
    GlobalCounter("duplex_test_scope_total")->Inc(2);
    { Span span = TraceSpan("test.scope"); }
  }
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(GlobalTracer(), nullptr);
  const std::string prom = ReadFile(dir + "/metrics.prom");
  EXPECT_NE(prom.find("duplex_test_scope_total 2"), std::string::npos);
  EXPECT_NE(ReadFile(dir + "/metrics.json").find("duplex_test_scope_total"),
            std::string::npos);
  EXPECT_NE(ReadFile(dir + "/trace.json").find("\"test.scope\""),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(ObservabilityScopeTest, ScopesNest) {
  const std::string outer_dir = TempDir("duplex_obs_outer");
  const std::string inner_dir = TempDir("duplex_obs_inner");
  {
    ObservabilityScope outer(outer_dir);
    GlobalCounter("duplex_test_n_total")->Inc(1);
    {
      ObservabilityScope inner(inner_dir);
      EXPECT_EQ(GlobalMetrics(), inner.registry());
      GlobalCounter("duplex_test_n_total")->Inc(10);
    }
    // Inner scope restored the outer registry.
    EXPECT_EQ(GlobalMetrics(), outer.registry());
    GlobalCounter("duplex_test_n_total")->Inc(1);
  }
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_NE(ReadFile(outer_dir + "/metrics.prom")
                .find("duplex_test_n_total 2"),
            std::string::npos);
  EXPECT_NE(ReadFile(inner_dir + "/metrics.prom")
                .find("duplex_test_n_total 10"),
            std::string::npos);
  fs::remove_all(outer_dir);
  fs::remove_all(inner_dir);
}

text::CorpusOptions TinyCorpus() {
  text::CorpusOptions o;
  o.num_updates = 6;
  o.docs_per_update = 120;
  o.word_universe = 20000;
  o.seed = 7;
  return o;
}

SimConfig ObservedConfig() {
  SimConfig c;
  c.num_buckets = 64;
  c.bucket_capacity = 128;
  c.block_postings = 16;
  c.num_disks = 2;
  c.blocks_per_disk = 1 << 18;
  // The count-only pipeline constructs no block devices, but an enabled
  // cache still runs its accounting — giving the run storage-layer
  // metric families alongside core.
  c.cache_blocks = 32;
  return c;
}

TEST(ObservedPipelineTest, RunPolicyWritesLayerSpanningMetrics) {
  const std::string dir = TempDir("duplex_obs_run");
  SimConfig config = ObservedConfig();
  config.observability_dir = dir;
  const BatchStream stream = GenerateBatches(TinyCorpus());
  const PolicyRunResult result = RunPolicy(
      config, stream.batches, core::Policy::RecommendedUpdateOptimized());
  EXPECT_GT(result.final_stats.total_postings, 0u);
  EXPECT_EQ(GlobalMetrics(), nullptr) << "scope must restore the globals";

  const std::string prom = ReadFile(dir + "/metrics.prom");
  ASSERT_FALSE(prom.empty());
  const std::set<std::string> families = ValidatePrometheus(prom);
  // Acceptance: >= 12 distinct metrics spanning core and storage (a
  // count-only RunPolicy evaluates no queries; ir coverage is asserted by
  // the duplexctl CLI test).
  EXPECT_GE(families.size(), 12u) << prom;
  EXPECT_TRUE(families.count("duplex_core_batch_apply_ns"));
  EXPECT_TRUE(families.count("duplex_core_bucket_inserts_total"));
  EXPECT_TRUE(families.count("duplex_core_long_lists_created_total"));
  EXPECT_TRUE(families.count("duplex_storage_cache_hits_total"));
  EXPECT_TRUE(families.count("duplex_storage_cache_misses_total"));

  const std::string trace = ReadFile(dir + "/trace.json");
  EXPECT_EQ(trace.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(trace.find("\"core.apply_batch\""), std::string::npos);

  const std::string json = ReadFile(dir + "/metrics.json");
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(ObservedPipelineTest, ShardedRunRecordsPerShardApplySeries) {
  const std::string dir = TempDir("duplex_obs_sharded");
  SimConfig config = ObservedConfig();
  config.observability_dir = dir;
  const BatchStream stream = GenerateBatches(TinyCorpus());
  const PolicyRunResult result =
      RunPolicy(config, stream.batches,
                core::Policy::RecommendedUpdateOptimized(),
                /*num_shards=*/4, /*threads=*/2);
  EXPECT_EQ(result.shard_stats.size(), 4u);
  const std::string prom = ReadFile(dir + "/metrics.prom");
  const std::set<std::string> families = ValidatePrometheus(prom);
  EXPECT_GE(families.size(), 12u);
  // One labeled series per shard, one TYPE line for the family.
  for (int s = 0; s < 4; ++s) {
    const std::string series = "duplex_core_shard_apply_ns_count{shard=\"" +
                               std::to_string(s) + "\"}";
    EXPECT_NE(prom.find(series), std::string::npos) << series;
  }
  EXPECT_NE(ReadFile(dir + "/trace.json").find("\"core.shard_apply\""),
            std::string::npos);
  fs::remove_all(dir);
}

// A run with no registry installed leaves every instrumentation site on
// its null path; nothing crashes, nothing is recorded anywhere.
TEST(ObservedPipelineTest, NoObservabilityDirMeansNoGlobalState) {
  ASSERT_EQ(GlobalMetrics(), nullptr);
  SimConfig config = ObservedConfig();
  const BatchStream stream = GenerateBatches(TinyCorpus());
  const PolicyRunResult result = RunPolicy(
      config, stream.batches, core::Policy::RecommendedUpdateOptimized());
  EXPECT_GT(result.final_stats.total_postings, 0u);
  EXPECT_EQ(GlobalMetrics(), nullptr);
  EXPECT_EQ(GlobalTracer(), nullptr);
}

// The WAL commit protocol and query evaluation record into an installed
// registry even outside the sim pipeline.
TEST(ObservedComponentsTest, WalAndQueriesRecord) {
  MetricsRegistry registry;
  Tracer tracer;
  MetricsRegistry* prev_registry = SetGlobalMetrics(&registry);
  Tracer* prev_tracer = SetGlobalTracer(&tracer);
  {
    core::IndexOptions options;
    options.buckets.num_buckets = 32;
    options.buckets.bucket_capacity = 128;
    options.policy = core::Policy::WholeZ();
    options.block_postings = 16;
    options.disks.num_disks = 2;
    options.disks.blocks_per_disk = 1 << 16;
    options.materialize = true;
    core::ShardedIndex index(core::ShardedIndexOptions::Partition(options, 2));

    const std::string wal_path =
        (fs::temp_directory_path() / "duplex_obs_wal_test.wal").string();
    std::remove(wal_path.c_str());
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path);
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);
    text::InvertedBatch batch;
    for (WordId w = 0; w < 40; ++w) {
      std::vector<DocId> docs;
      for (DocId d = 0; d <= w; ++d) docs.push_back(d);
      batch.entries.push_back({w, docs});
    }
    ASSERT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok());
    std::remove(wal_path.c_str());

    ir::BooleanQuery query;
    query.kind = ir::BooleanQuery::Kind::kTerm;
    query.term = "missing";
    ASSERT_TRUE(ir::QueryExecutor(index).EvaluateBoolean(query).ok());
  }
  SetGlobalMetrics(prev_registry);
  SetGlobalTracer(prev_tracer);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.histograms.at("duplex_core_wal_append_ns").count, 1u);
  EXPECT_GE(snapshot.histograms.at("duplex_core_batch_apply_ns").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("duplex_core_partition_ns").count, 1u);
  EXPECT_EQ(snapshot.counters.at("duplex_ir_queries_total"), 1u);
  EXPECT_GE(snapshot.histograms.at("duplex_ir_query_ns").count, 1u);
  bool saw_query_span = false;
  for (const TraceEvent& e : tracer.Events()) {
    if (e.name == "ir.query") saw_query_span = true;
  }
  EXPECT_TRUE(saw_query_span);
}

// Document batches take the same partition + per-shard apply path as
// every other batch, so each flush is timed once per step and shard.
TEST(ObservedComponentsTest, FlushDocumentsLoggedTimesPartitionAndEveryShard) {
  MetricsRegistry registry;
  MetricsRegistry* prev_registry = SetGlobalMetrics(&registry);
  constexpr uint64_t kFlushes = 3;
  constexpr uint32_t kShards = 4;
  {
    core::IndexOptions options;
    options.buckets.num_buckets = 32;
    options.buckets.bucket_capacity = 128;
    options.disks.num_disks = 2;
    options.disks.blocks_per_disk = 1 << 16;
    options.materialize = true;
    core::ShardedIndex index(
        core::ShardedIndexOptions::Partition(options, kShards));
    const std::string wal_path =
        (fs::temp_directory_path() / "duplex_obs_flush_test.wal").string();
    std::remove(wal_path.c_str());
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path);
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);
    for (uint64_t f = 0; f < kFlushes; ++f) {
      index.AddDocument("alpha beta gamma delta");
      index.AddDocument("epsilon zeta eta theta");
      ASSERT_TRUE(index.FlushDocuments(log->get()).ok());
    }
    EXPECT_EQ((*log)->batches_applied(), kFlushes);
    std::remove(wal_path.c_str());
  }
  SetGlobalMetrics(prev_registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at("duplex_core_partition_ns").count,
            kFlushes);
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string series =
        "duplex_core_shard_apply_ns{shard=\"" + std::to_string(s) + "\"}";
    ASSERT_EQ(snapshot.histograms.count(series), 1u) << series;
    EXPECT_EQ(snapshot.histograms.at(series).count, kFlushes) << series;
  }
}

}  // namespace
}  // namespace duplex::sim
