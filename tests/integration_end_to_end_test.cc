// End-to-end integration tests: a miniature full reproduction of the
// paper's experiment (all five policy families over a synthetic stream,
// asserting the published orderings hold), and a crash-consistent
// maintenance cycle combining the write-ahead batch log with snapshots.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/batch_log.h"
#include "core/inverted_index.h"
#include "core/checkpoint.h"
#include "ir/query_executor.h"
#include "sim/pipeline.h"

namespace duplex {
namespace {

sim::SimConfig MiniConfig() {
  sim::SimConfig config;
  config.num_buckets = 512;
  config.bucket_capacity = 512;
  config.block_postings = 32;
  config.num_disks = 3;
  config.blocks_per_disk = 1 << 19;
  return config;
}

class MiniReproductionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    text::CorpusOptions corpus;
    corpus.num_updates = 14;
    corpus.docs_per_update = 500;
    corpus.word_universe = 200000;
    corpus.seed = 2026;
    stream_ = new sim::BatchStream(sim::GenerateBatches(corpus));
    auto run = [&](const core::Policy& policy) {
      sim::PolicyRunResult r =
          sim::RunPolicy(MiniConfig(), stream_->batches, policy);
      seconds_.push_back(
          sim::ExerciseDisks(MiniConfig(), r.trace).total_seconds());
      runs_.push_back(std::move(r));
    };
    run(core::Policy::New0());
    run(core::Policy::NewZ());
    run(core::Policy::FillZ(4));
    run(core::Policy::WholeZ());
    run(core::Policy::Whole0());
  }
  static void TearDownTestSuite() {
    delete stream_;
    stream_ = nullptr;
    runs_.clear();
    seconds_.clear();
  }

  enum { kNew0, kNewZ, kFillZ, kWholeZ, kWhole0 };

  static sim::BatchStream* stream_;
  static std::vector<sim::PolicyRunResult> runs_;
  static std::vector<double> seconds_;
};

sim::BatchStream* MiniReproductionTest::stream_ = nullptr;
std::vector<sim::PolicyRunResult> MiniReproductionTest::runs_;
std::vector<double> MiniReproductionTest::seconds_;

TEST_F(MiniReproductionTest, AllPoliciesIndexTheSamePostings) {
  const uint64_t expected = stream_->stats.total_postings;
  for (const auto& run : runs_) {
    EXPECT_EQ(run.final_stats.total_postings, expected);
    EXPECT_EQ(run.final_stats.long_words, runs_[0].final_stats.long_words)
        << "the short/long split is policy-independent";
  }
}

TEST_F(MiniReproductionTest, Figure8OrderingHolds) {
  EXPECT_LT(runs_[kNew0].final_stats.io_ops,
            runs_[kNewZ].final_stats.io_ops);
  EXPECT_LE(runs_[kNewZ].final_stats.io_ops,
            runs_[kWholeZ].final_stats.io_ops);
  EXPECT_EQ(runs_[kWholeZ].final_stats.io_ops,
            runs_[kWhole0].final_stats.io_ops);
}

TEST_F(MiniReproductionTest, Figure9OrderingHolds) {
  EXPECT_GT(runs_[kWhole0].utilization.back(), 0.8);
  EXPECT_GT(runs_[kNewZ].utilization.back(),
            runs_[kNew0].utilization.back());
  EXPECT_GT(runs_[kWholeZ].utilization.back(),
            runs_[kFillZ].utilization.back());
}

TEST_F(MiniReproductionTest, Figure10OrderingHolds) {
  EXPECT_DOUBLE_EQ(runs_[kWholeZ].avg_reads_per_list.back(), 1.0);
  EXPECT_DOUBLE_EQ(runs_[kWhole0].avg_reads_per_list.back(), 1.0);
  EXPECT_GT(runs_[kNew0].avg_reads_per_list.back(),
            runs_[kNewZ].avg_reads_per_list.back());
  EXPECT_GE(runs_[kNewZ].avg_reads_per_list.back(),
            runs_[kFillZ].avg_reads_per_list.back());
}

TEST_F(MiniReproductionTest, Figure13OrderingHolds) {
  EXPECT_LT(seconds_[kNew0], seconds_[kNewZ]);
  EXPECT_LT(seconds_[kNewZ], seconds_[kWhole0]);
  EXPECT_LT(seconds_[kWholeZ], seconds_[kWhole0]);
  // The time spread exceeds the op-count spread (the paper's headline).
  const double time_spread = seconds_[kWhole0] / seconds_[kNew0];
  const double op_spread =
      static_cast<double>(runs_[kWhole0].final_stats.io_ops) /
      static_cast<double>(runs_[kNew0].final_stats.io_ops);
  EXPECT_GT(time_spread, op_spread);
}

TEST_F(MiniReproductionTest, InPlaceCountersMatchPolicySemantics) {
  EXPECT_EQ(runs_[kNew0].counters.in_place_updates, 0u);
  EXPECT_EQ(runs_[kWhole0].counters.in_place_updates, 0u);
  EXPECT_GT(runs_[kNewZ].counters.in_place_updates, 0u);
  // Every policy faced the same append opportunities.
  for (const auto& run : runs_) {
    EXPECT_EQ(run.counters.appends_to_existing,
              runs_[0].counters.appends_to_existing);
  }
}

// --- Crash-consistent maintenance cycle ----------------------------------

class MaintenanceCycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/duplex_e2e_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix : {".super", ".ckpt-1", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  static core::IndexOptions Options() {
    core::IndexOptions o;
    o.buckets.num_buckets = 32;
    o.buckets.bucket_capacity = 128;
    o.policy = core::Policy::RecommendedUpdateOptimized();
    o.block_postings = 16;
    o.disks.num_disks = 2;
    o.disks.blocks_per_disk = 1 << 18;
    o.disks.block_size_bytes = 128;
    o.materialize = true;
    return o;
  }

  core::Checkpointer MakeCheckpointer() const {
    core::CheckpointOptions options;
    options.prefix = prefix_;
    return core::Checkpointer(options);
  }

  std::string prefix_;
};

TEST_F(MaintenanceCycleTest, LogApplySnapshotCrashRecover) {
  // Day 1: log + apply two batches, snapshot, truncate the log.
  core::InvertedIndex index(Options());
  {
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(prefix_ + ".wal");
    ASSERT_TRUE(log.ok());
    for (int day = 0; day < 2; ++day) {
      text::InvertedBatch batch;
      std::vector<DocId> docs;
      for (int d = 0; d < 30; ++d) {
        docs.push_back(static_cast<DocId>(day * 30 + d));
      }
      batch.entries = {{0, docs},
                       {static_cast<WordId>(day + 1), {docs[0], docs[5]}}};
      Result<uint64_t> id = (*log)->AppendBatch(batch);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(index.ApplyInvertedBatch(batch).ok());
      ASSERT_TRUE((*log)->MarkApplied(*id).ok());
    }
    // The checkpoint also truncates the WAL to the batches it covers.
    ASSERT_TRUE(MakeCheckpointer().Checkpoint(index, log->get()).ok());

    // Day 3: one more batch is logged, and the process "crashes" before
    // applying it (we simply drop the in-memory index).
    text::InvertedBatch late;
    late.entries = {{0, {60, 61}}, {7, {61}}};
    ASSERT_TRUE((*log)->AppendBatch(late).ok());
  }

  // Recovery: restore the checkpoint, then replay the unapplied tail.
  core::InvertedIndex recovered(Options());
  ASSERT_TRUE(MakeCheckpointer().Recover(&recovered, /*log=*/nullptr).ok());
  Result<std::unique_ptr<core::BatchLog>> log =
      core::BatchLog::Open(prefix_ + ".wal");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->UnappliedBatches().size(), 1u);
  ASSERT_TRUE((*log)->RecoverInto(&recovered).ok());

  ASSERT_TRUE(recovered.VerifyIntegrity().ok());
  EXPECT_EQ(recovered.Locate(WordId{0}).postings, 62u);
  EXPECT_EQ(recovered.Locate(WordId{7}).postings, 1u);
  Result<std::vector<DocId>> docs = recovered.GetPostings(WordId{7});
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, (std::vector<DocId>{61}));
}

TEST_F(MaintenanceCycleTest, IntegrityHoldsAcrossFullLifecycle) {
  core::InvertedIndex index(Options());
  for (int day = 0; day < 6; ++day) {
    for (int d = 0; d < 20; ++d) {
      // All-letter tokens: the tokenizer splits letter runs from digits.
      index.AddDocument(std::string("common word") +
                        static_cast<char>('a' + d % 7) + " day" +
                        static_cast<char>('a' + day));
    }
    ASSERT_TRUE(index.VerifyIntegrity().ok()) << "buffered, day " << day;
    ASSERT_TRUE(index.FlushDocuments().ok());
    ASSERT_TRUE(index.VerifyIntegrity().ok()) << "flushed, day " << day;
  }
  index.DeleteDocument(3);
  index.DeleteDocument(40);
  ASSERT_TRUE(index.SweepDeletions().ok());
  ASSERT_TRUE(index.VerifyIntegrity().ok()) << "after sweep";
  ASSERT_TRUE(index.GrowBuckets(64, 128).ok());
  ASSERT_TRUE(index.VerifyIntegrity().ok()) << "after bucket growth";
  const Result<ir::QueryResult> r =
      ir::QueryExecutor(index).EvaluateBoolean("common AND daya");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs.size(), 19u);  // 20 day-a docs minus deleted doc 3
}

}  // namespace
}  // namespace duplex
