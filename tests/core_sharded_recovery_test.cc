// Per-shard fault isolation: arm a crash schedule on exactly ONE shard's
// disk array and sweep its final-batch I/O ops. At every crash point the
// healthy shards must hold the full batch (their words bit-equal to the
// uncrashed reference), the batch as a whole must report failure, and a
// WAL replay into a fresh sharded index must restore everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/batch_log.h"
#include "core/sharded_index.h"
#include "storage/fault_injection.h"
#include "text/batch.h"
#include "text/shard_partition.h"
#include "util/random.h"

namespace duplex {
namespace {

constexpr int kWords = 48;
constexpr int kBatches = 3;
constexpr uint32_t kShards = 3;
constexpr uint32_t kFaultyShard = 1;

core::ShardedIndexOptions BaseOptions() {
  core::IndexOptions shard;
  shard.buckets.num_buckets = 16;
  shard.buckets.bucket_capacity = 64;
  shard.policy = core::Policy::WholeZ();
  shard.block_postings = 16;
  shard.disks.num_disks = 2;
  shard.disks.blocks_per_disk = 1 << 16;
  shard.disks.block_size_bytes = 128;
  shard.disks.checksums = true;
  shard.materialize = true;
  core::ShardedIndexOptions options;
  options.shard = shard;
  options.num_shards = kShards;
  return options;
}

std::vector<text::InvertedBatch> Batches() {
  std::vector<text::InvertedBatch> batches;
  Rng rng(7);
  DocId next_doc = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<DocId>> lists(kWords);
    for (int d = 0; d < 24; ++d) {
      const DocId doc = next_doc++;
      for (int w = 0; w < kWords; ++w) {
        if (rng.Uniform(1 + static_cast<uint64_t>(w) / 4) == 0) {
          lists[w].push_back(doc);
        }
      }
    }
    text::InvertedBatch batch;
    for (int w = 0; w < kWords; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

core::ShardedIndexOptions WithFaultOn(
    uint32_t faulty_shard, std::shared_ptr<storage::FaultSchedule> schedule) {
  core::ShardedIndexOptions options = BaseOptions();
  options.customize_shard = [faulty_shard, schedule](
                                uint32_t s, core::IndexOptions& o) {
    if (s == faulty_shard) o.disks.fault_schedule = schedule;
  };
  return options;
}

TEST(ShardedRecoveryTest, CrashOnOneShardIsIsolatedAndRecoverable) {
  const std::vector<text::InvertedBatch> batches = Batches();
  const std::string wal_path =
      ::testing::TempDir() + "/duplex_sharded_recovery.wal";

  // Uncrashed reference.
  core::ShardedIndex reference(BaseOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }
  // Counting run: no-fault schedule on the target shard numbers its ops.
  uint64_t ops_before = 0;
  uint64_t n_ops = 0;
  {
    auto schedule = std::make_shared<storage::FaultSchedule>(
        storage::FaultScheduleOptions{});
    core::ShardedIndex index(WithFaultOn(kFaultyShard, schedule));
    for (size_t b = 0; b + 1 < batches.size(); ++b) {
      ASSERT_TRUE(index.ApplyInvertedBatch(batches[b]).ok());
    }
    ops_before = schedule->ops_issued();
    ASSERT_TRUE(index.ApplyInvertedBatch(batches.back()).ok());
    n_ops = schedule->ops_issued() - ops_before;
  }
  ASSERT_GT(n_ops, 0u) << "faulty shard saw no I/O in the final batch";

  for (uint64_t k = 1; k <= n_ops; ++k) {
    std::remove(wal_path.c_str());
    storage::FaultScheduleOptions fault;
    fault.crash_at_op = ops_before + k;
    auto schedule = std::make_shared<storage::FaultSchedule>(fault);
    core::ShardedIndex index(WithFaultOn(kFaultyShard, schedule));

    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path);
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);

    for (size_t b = 0; b < batches.size(); ++b) {
      const Status applied =
          index.ApplyLogged(log->get(), batches[b], {}).status();
      if (b + 1 < batches.size()) {
        ASSERT_TRUE(applied.ok())
            << "crash point " << k << " fired before the final batch";
        continue;
      }
      ASSERT_FALSE(applied.ok()) << "crash at op " << k << " did not fire";
      ASSERT_TRUE(applied.IsIoError()) << applied;
    }

    // Isolation: every word owned by a healthy shard answers exactly —
    // matching either the full reference (its shard finished the batch)
    // and never garbage; the crashed shard is allowed to fail typed.
    for (WordId w = 0; w < kWords; ++w) {
      const uint32_t owner = text::ShardForWord(w, kShards);
      const Result<std::vector<DocId>> got = index.GetPostings(w);
      if (owner != kFaultyShard) {
        const Result<std::vector<DocId>> expect = reference.GetPostings(w);
        ASSERT_EQ(expect.ok(), got.ok())
            << "healthy shard " << owner << " word " << w << " crash " << k;
        if (expect.ok()) {
          EXPECT_EQ(*expect, *got)
              << "healthy shard " << owner << " word " << w << " crash " << k;
        }
      } else if (got.ok()) {
        // Words on the crashed shard may answer a torn-but-honest state:
        // the final batch was cut mid-apply, so anything between the
        // before-state and the after-state is legitimate — but every doc
        // id must come from a logged batch (an ascending subset of the
        // reference after-state), never an invented posting.
        const Result<std::vector<DocId>> after = reference.GetPostings(w);
        ASSERT_TRUE(after.ok()) << "word " << w;
        EXPECT_TRUE(std::includes(after->begin(), after->end(),
                                  got->begin(), got->end()))
            << "crashed shard word " << w << " crash " << k
            << " invented postings";
      }
    }

    // Recovery: fresh, fault-free sharded index; replay the full WAL.
    core::ShardedIndex recovered(BaseOptions());
    Result<std::unique_ptr<core::BatchLog>> replay =
        core::BatchLog::Open(wal_path);
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ((*replay)->batches_logged(), batches.size());
    EXPECT_EQ((*replay)->UnappliedBatches().size(), 1u) << "crash " << k;
    ASSERT_TRUE(recovered.ReplayLogged(replay->get(), 0).ok())
        << "crash " << k;
    EXPECT_EQ((*replay)->UnappliedBatches().size(), 0u) << "crash " << k;
    ASSERT_TRUE(recovered.VerifyIntegrity().ok()) << "crash " << k;
    for (WordId w = 0; w < kWords; ++w) {
      const Result<std::vector<DocId>> expect = reference.GetPostings(w);
      const Result<std::vector<DocId>> got = recovered.GetPostings(w);
      ASSERT_EQ(expect.ok(), got.ok()) << "word " << w << " crash " << k;
      if (expect.ok()) {
        EXPECT_EQ(*expect, *got) << "word " << w << " crash " << k;
      }
    }
    EXPECT_EQ(recovered.Stats().total_postings,
              reference.Stats().total_postings)
        << "crash " << k;
  }
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace duplex
