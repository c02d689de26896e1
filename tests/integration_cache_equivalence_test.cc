// Cache transparency, end to end: a buffer pool may change which I/O is
// physical, but never what the index computes. Three angles:
//   1. count-only pipeline — identical logical trace with and without a
//      pool, and a >= 3x physical-read reduction with a 4 MiB pool on the
//      Figure 8 workload (the acceptance bar for this subsystem);
//   2. materialized index — bit-identical query results cached vs
//      uncached, in both cache modes;
//   3. write-back + WAL — a simulated crash between AppendBatch and the
//      commit record recovers, via BatchLog replay, to the same posting
//      lists an uncached index produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "core/batch_log.h"
#include "core/inverted_index.h"
#include "core/checkpoint.h"
#include "ir/query_eval.h"
#include "sim/pipeline.h"
#include "storage/buffer_pool.h"
#include "storage/io_trace.h"
#include "text/batch.h"
#include "util/random.h"

namespace duplex {
namespace {

// --- Count-only pipeline -----------------------------------------------------

sim::SimConfig Fig8Config(uint64_t cache_blocks) {
  sim::SimConfig config;
  config.num_buckets = 512;
  config.bucket_capacity = 512;
  config.block_postings = 128;
  config.num_disks = 3;
  config.blocks_per_disk = 1 << 19;
  config.block_size = 4096;
  config.cache_blocks = cache_blocks;
  return config;
}

sim::BatchStream Fig8Stream() {
  text::CorpusOptions corpus;
  corpus.num_updates = 12;
  corpus.docs_per_update = 200;
  corpus.word_universe = 200000;
  corpus.seed = 2026;
  return sim::GenerateBatches(corpus);
}

std::vector<storage::IoEvent> WithoutCachedFlag(
    const storage::IoTrace& trace) {
  std::vector<storage::IoEvent> events = trace.events();
  for (storage::IoEvent& e : events) e.cached = false;
  return events;
}

TEST(CacheEquivalenceTest, PoolChangesNoLogicalEventOnlyTheCachedFlag) {
  const sim::BatchStream stream = Fig8Stream();
  for (const core::Policy& policy :
       {core::Policy::WholeZ(), core::Policy::NewZ()}) {
    const sim::PolicyRunResult uncached =
        sim::RunPolicy(Fig8Config(0), stream.batches, policy);
    const sim::PolicyRunResult cached =
        sim::RunPolicy(Fig8Config(1024), stream.batches, policy);
    // Same index state, same logical I/O stream, op for op.
    EXPECT_EQ(cached.final_stats.total_postings,
              uncached.final_stats.total_postings);
    EXPECT_EQ(cached.final_stats.io_ops, uncached.final_stats.io_ops);
    EXPECT_EQ(cached.cumulative_io_ops, uncached.cumulative_io_ops);
    ASSERT_EQ(cached.trace.event_count(), uncached.trace.event_count());
    EXPECT_EQ(WithoutCachedFlag(cached.trace),
              WithoutCachedFlag(uncached.trace));
    // The uncached run must not carry the flag anywhere.
    EXPECT_EQ(uncached.trace.CountCachedOps(), 0u);
    EXPECT_EQ(uncached.trace.CountPhysicalOps(),
              uncached.trace.CountOps());
  }
}

// The acceptance bar: a 4 MiB pool (1024 x 4096-byte frames) over the
// Figure 8 whole-list workload turns the dominating re-reads into cache
// hits — physical reads drop by at least 3x while the logical trace is
// untouched.
TEST(CacheEquivalenceTest, FourMiBPoolCutsPhysicalReadsThreeFold) {
  const sim::BatchStream stream = Fig8Stream();
  const core::Policy policy = core::Policy::WholeZ();
  const sim::PolicyRunResult uncached =
      sim::RunPolicy(Fig8Config(0), stream.batches, policy);
  const sim::PolicyRunResult cached =
      sim::RunPolicy(Fig8Config(1024), stream.batches, policy);

  const uint64_t physical_uncached =
      uncached.trace.CountPhysicalOps(storage::IoOp::kRead);
  const uint64_t physical_cached =
      cached.trace.CountPhysicalOps(storage::IoOp::kRead);
  ASSERT_GT(physical_uncached, 0u);
  EXPECT_GE(physical_uncached, 3 * physical_cached)
      << "physical reads uncached=" << physical_uncached
      << " cached=" << physical_cached;
  // Bookkeeping closes: every logical read is either physical or cached.
  EXPECT_EQ(physical_cached + cached.trace.CountCachedOps(),
            cached.trace.CountOps(storage::IoOp::kRead));
  // The pool's own accounting agrees that hits dominate.
  EXPECT_GT(cached.final_stats.cache_hits,
            cached.final_stats.cache_misses);
}

// --- Materialized index ------------------------------------------------------

core::IndexOptions MaterializedOptions(uint64_t cache_blocks,
                                       storage::CacheMode mode) {
  core::IndexOptions o;
  o.buckets.num_buckets = 32;
  o.buckets.bucket_capacity = 128;
  o.policy = core::Policy::WholeZ();
  o.block_postings = 16;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 18;
  o.disks.block_size_bytes = 128;
  o.materialize = true;
  o.cache.capacity_blocks = cache_blocks;
  o.cache.mode = mode;
  return o;
}

std::vector<text::InvertedBatch> DeterministicBatches(int num_batches,
                                                      int words,
                                                      int docs_per_batch) {
  std::vector<text::InvertedBatch> batches;
  Rng rng(42);
  DocId next_doc = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<std::vector<DocId>> lists(words);
    for (int d = 0; d < docs_per_batch; ++d) {
      const DocId doc = next_doc++;
      for (int w = 0; w < words; ++w) {
        const uint64_t odds = 1 + static_cast<uint64_t>(w) / 4;
        if (rng.Uniform(odds) == 0) lists[w].push_back(doc);
      }
    }
    text::InvertedBatch batch;
    for (int w = 0; w < words; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(CacheEquivalenceTest, MaterializedQueriesIdenticalAcrossCacheModes) {
  constexpr int kWords = 80;
  const std::vector<text::InvertedBatch> batches =
      DeterministicBatches(8, kWords, 40);

  core::InvertedIndex uncached(
      MaterializedOptions(0, storage::CacheMode::kWriteThrough));
  core::InvertedIndex through(
      MaterializedOptions(64, storage::CacheMode::kWriteThrough));
  core::InvertedIndex back(
      MaterializedOptions(64, storage::CacheMode::kWriteBack));
  for (const auto& batch : batches) {
    ASSERT_TRUE(uncached.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(through.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(back.ApplyInvertedBatch(batch).ok());
  }

  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = uncached.GetPostings(w);
    for (core::InvertedIndex* index : {&through, &back}) {
      const Result<std::vector<DocId>> got = index->GetPostings(w);
      ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
      if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
    }
  }
  // Undersized pools were genuinely exercised, not bypassed.
  EXPECT_GT(through.cache_stats().hits, 0u);
  EXPECT_GT(back.cache_stats().dirty_writebacks, 0u);
  EXPECT_TRUE(through.VerifyIntegrity().ok());
  EXPECT_TRUE(back.VerifyIntegrity().ok());

  // After an explicit flush the write-back index still answers the same.
  ASSERT_TRUE(back.FlushCaches().ok());
  for (WordId w = 0; w < kWords; w += 7) {
    const Result<std::vector<DocId>> expect = uncached.GetPostings(w);
    const Result<std::vector<DocId>> got = back.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok());
    if (expect.ok()) EXPECT_EQ(*expect, *got);
  }
}

// --- Write-back + WAL across a crash ----------------------------------------

class CacheCrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = ::testing::TempDir() + "/duplex_cache_crash";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix : {".super", ".ckpt-1", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  core::Checkpointer MakeCheckpointer() const {
    core::CheckpointOptions options;
    options.prefix = prefix_;
    return core::Checkpointer(options);
  }

  std::string prefix_;
};

TEST_F(CacheCrashRecoveryTest, WriteBackRecoversToUncachedState) {
  constexpr int kWords = 60;
  const std::vector<text::InvertedBatch> batches =
      DeterministicBatches(5, kWords, 30);
  const auto cached_options = [] {
    return MaterializedOptions(64, storage::CacheMode::kWriteBack);
  };

  // Reference: no cache, every batch applied directly.
  core::InvertedIndex reference(
      MaterializedOptions(0, storage::CacheMode::kWriteThrough));
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }

  // Day 1: write-back index runs the full commit protocol (append, apply,
  // flush dirty frames, commit) for all but the last batch, checkpoints
  // (which truncates the log), appends the last batch — and "crashes" before
  // applying it (the index object, its devices, and every dirty frame in
  // the pool are simply dropped).
  {
    core::InvertedIndex index(cached_options());
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(prefix_ + ".wal");
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);  // keep the test off the disk's fsync path
    for (size_t b = 0; b + 1 < batches.size(); ++b) {
      ASSERT_TRUE((*log)->ApplyLogged(&index, batches[b]).ok());
    }
    // ApplyLogged flushed dirty frames before each commit record.
    EXPECT_GT(index.cache_stats().dirty_writebacks, 0u);
    ASSERT_TRUE(MakeCheckpointer().Checkpoint(index, log->get()).ok());
    ASSERT_TRUE((*log)->AppendBatch(batches.back()).ok());
  }

  // Recovery: restore the checkpoint into a fresh write-back index and
  // replay the unapplied tail (RecoverInto flushes caches before every
  // commit record, same as ApplyLogged).
  core::InvertedIndex recovered(cached_options());
  ASSERT_TRUE(MakeCheckpointer().Recover(&recovered, /*log=*/nullptr).ok());
  Result<std::unique_ptr<core::BatchLog>> log =
      core::BatchLog::Open(prefix_ + ".wal");
  ASSERT_TRUE(log.ok());
  (*log)->set_fsync(false);
  ASSERT_EQ((*log)->UnappliedBatches().size(), 1u);
  ASSERT_TRUE((*log)->RecoverInto(&recovered).ok());
  EXPECT_EQ((*log)->UnappliedBatches().size(), 0u);

  ASSERT_TRUE(recovered.VerifyIntegrity().ok());
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
  }
}

}  // namespace
}  // namespace duplex
