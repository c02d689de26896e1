// Crash-provable checkpointing: arm one FaultSchedule over EVERY physical
// op of the checkpoint protocol (shard image and manifest chunk writes +
// syncs, superblock slot halves + sync, WAL tail rewrite + sync +
// rename), crash at each op
// in turn, then recover from disk alone and prove the index equals an
// uncrashed reference list-for-list. A second sweep flips one bit instead
// of crashing: recovery must come back equal or fail typed — garbage is
// the one outcome that must never happen.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/sharded_index.h"
#include "storage/fault_injection.h"
#include "text/batch.h"
#include "util/random.h"

namespace duplex::core {
namespace {

namespace fs = std::filesystem;

constexpr int kWords = 40;
constexpr int kPreBatches = 4;   // applied before the crashed checkpoint
constexpr int kPostBatches = 2;  // applied after recovery

ShardedIndexOptions SmallOptions(uint32_t shards) {
  IndexOptions options;
  options.buckets.num_buckets = 16;
  options.buckets.bucket_capacity = 64;
  options.policy = Policy::WholeZ();
  options.block_postings = 16;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 16;
  options.disks.block_size_bytes = 128;
  options.disks.checksums = true;
  options.materialize = true;
  ShardedIndexOptions sharded;
  sharded.shard = options;
  sharded.num_shards = shards;
  return sharded;
}

std::vector<text::InvertedBatch> MakeBatches(int count) {
  std::vector<text::InvertedBatch> batches;
  Rng rng(97);
  DocId next_doc = 0;
  for (int b = 0; b < count; ++b) {
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

// The uncrashed reference: all pre- and post-batches applied in order.
void BuildReference(ShardedIndex* reference,
                    const std::vector<text::InvertedBatch>& batches) {
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference->ApplyInvertedBatch(batch).ok());
  }
}

void ExpectSamePostings(const ShardedIndex& recovered,
                        const ShardedIndex& reference,
                        const std::string& context) {
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << context << " word " << w;
    if (expect.ok()) {
      ASSERT_EQ(*expect, *got) << context << " word " << w;
    }
  }
  ASSERT_EQ(reference.next_doc_id(), recovered.next_doc_id()) << context;
  ASSERT_TRUE(recovered.VerifyIntegrity().ok()) << context;
}

class CheckpointCrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/duplex_ckpt_sweep_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Fresh artifact directory per run so install sequences and op counts
  // are identical across the sweep.
  std::string FreshRun(const std::string& tag) {
    const std::string run = dir_ + "/" + tag;
    std::error_code ec;
    fs::remove_all(run, ec);
    fs::create_directories(run);
    return run;
  }

  // Crashes the checkpoint of a `shards`-shard index at every op in turn.
  void CrashAtEveryOp(uint32_t shards);

  std::string dir_;
};

// Counts the physical ops of one whole checkpoint (a no-fault schedule
// still numbers every op), so the sweeps know their upper bound.
uint64_t CountCheckpointOps(const std::string& run,
                            const std::vector<text::InvertedBatch>& pre,
                            uint32_t shards) {
  Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(run + "/idx.wal");
  EXPECT_TRUE(log.ok());
  (*log)->set_fsync(false);
  ShardedIndex index(SmallOptions(shards));
  for (const auto& batch : pre) {
    EXPECT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok());
  }
  CheckpointOptions options;
  options.prefix = run + "/idx";
  options.fault = std::make_shared<storage::FaultSchedule>(
      storage::FaultScheduleOptions{});
  Checkpointer checkpointer(options);
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log->get());
  EXPECT_TRUE(info.ok()) << info.status();
  return options.fault->ops_issued();
}

// Crashes the checkpoint protocol at every op in turn, recovers from disk
// alone, applies the post-checkpoint batches, and diffs against the
// uncrashed reference.
void CheckpointCrashSweepTest::CrashAtEveryOp(uint32_t shards) {
  const std::vector<text::InvertedBatch> all =
      MakeBatches(kPreBatches + kPostBatches);
  const std::vector<text::InvertedBatch> pre(all.begin(),
                                             all.begin() + kPreBatches);

  ShardedIndex reference(SmallOptions(shards));
  BuildReference(&reference, all);
  const uint64_t total_ops = CountCheckpointOps(FreshRun("count"), pre, shards);
  // Shard images, manifest, superblock and WAL rewrite are all counted.
  ASSERT_GT(total_ops, 5u);

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash_at_op=" + std::to_string(crash_at));
    const std::string run = FreshRun("crash" + std::to_string(crash_at));
    const std::string wal_path = run + "/idx.wal";

    {
      Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(wal_path);
      ASSERT_TRUE(log.ok());
      (*log)->set_fsync(false);
      ShardedIndex index(SmallOptions(shards));
      for (const auto& batch : pre) {
        ASSERT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok());
      }
      storage::FaultScheduleOptions fo;
      fo.crash_at_op = crash_at;
      CheckpointOptions options;
      options.prefix = run + "/idx";
      options.fault = std::make_shared<storage::FaultSchedule>(fo);
      Checkpointer checkpointer(options);
      Result<CheckpointInfo> info =
          checkpointer.Checkpoint(index, log->get());
      ASSERT_FALSE(info.ok()) << "op " << crash_at << " did not crash";
      // Power cut: the process and every in-memory structure vanish here.
    }

    Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(wal_path);
    ASSERT_TRUE(log.ok()) << log.status();
    (*log)->set_fsync(false);
    ShardedIndex recovered(SmallOptions(shards));
    CheckpointOptions options;
    options.prefix = run + "/idx";
    Checkpointer checkpointer(options);
    Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, log->get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    // Whichever side of the flip the crash landed on, the recovered index
    // must continue taking batches and end up identical to the reference.
    for (int b = kPreBatches; b < kPreBatches + kPostBatches; ++b) {
      ASSERT_TRUE(recovered.ApplyLogged(log->get(), all[b], {}).ok());
    }
    ExpectSamePostings(recovered, reference,
                       "crash_at=" + std::to_string(crash_at));
  }
}

// One shard: the degenerate case of the manifest layout.
TEST_F(CheckpointCrashSweepTest, CrashAtEveryOpRecoversExactly) {
  CrashAtEveryOp(1);
}

TEST_F(CheckpointCrashSweepTest, BitFlipAtEveryOpNeverYieldsGarbage) {
  const std::vector<text::InvertedBatch> all =
      MakeBatches(kPreBatches + kPostBatches);
  const std::vector<text::InvertedBatch> pre(all.begin(),
                                             all.begin() + kPreBatches);

  ShardedIndex reference(SmallOptions(3));
  BuildReference(&reference, all);
  const uint64_t total_ops = CountCheckpointOps(FreshRun("count"), pre, 3);

  uint64_t typed_failures = 0;
  for (uint64_t flip_at = 1; flip_at <= total_ops; ++flip_at) {
    SCOPED_TRACE("bit_flip_at_op=" + std::to_string(flip_at));
    const std::string run = FreshRun("flip" + std::to_string(flip_at));
    const std::string wal_path = run + "/idx.wal";

    {
      Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(wal_path);
      ASSERT_TRUE(log.ok());
      (*log)->set_fsync(false);
      ShardedIndex index(SmallOptions(3));
      for (const auto& batch : pre) {
        ASSERT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok());
      }
      storage::FaultScheduleOptions fo;
      fo.bit_flip_ops = {flip_at};
      CheckpointOptions options;
      options.prefix = run + "/idx";
      options.fault = std::make_shared<storage::FaultSchedule>(fo);
      Checkpointer checkpointer(options);
      // A flipped bit is silent: the checkpoint may well "succeed".
      (void)checkpointer.Checkpoint(index, log->get());
    }

    // Recovery must either reconstruct the exact pre-checkpoint state or
    // fail with a typed status — a silently wrong index is the only
    // forbidden outcome.
    Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(wal_path);
    if (!log.ok()) {
      ASSERT_TRUE(log.status().IsCorruption()) << log.status();
      ++typed_failures;
      continue;
    }
    (*log)->set_fsync(false);
    ShardedIndex recovered(SmallOptions(3));
    CheckpointOptions options;
    options.prefix = run + "/idx";
    Checkpointer checkpointer(options);
    Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, log->get());
    if (!rec.ok()) {
      ASSERT_TRUE(rec.status().IsCorruption() ||
                  rec.status().IsFailedPrecondition() ||
                  rec.status().IsIoError())
          << rec.status();
      ++typed_failures;
      continue;
    }
    for (int b = kPreBatches; b < kPreBatches + kPostBatches; ++b) {
      ASSERT_TRUE(recovered.ApplyLogged(log->get(), all[b], {}).ok());
    }
    ExpectSamePostings(recovered, reference,
                       "flip_at=" + std::to_string(flip_at));

    // The batches submitted after that recovery must survive the next
    // restart too: a log that reopened behind the checkpoint would hand
    // out ids the checkpoint covers, and this replay would skip them.
    log->reset();
    Result<std::unique_ptr<BatchLog>> relog = BatchLog::Open(wal_path);
    ASSERT_TRUE(relog.ok()) << relog.status();
    (*relog)->set_fsync(false);
    ShardedIndex restarted(SmallOptions(3));
    Result<RecoveryInfo> again =
        checkpointer.Recover(&restarted, relog->get());
    ASSERT_TRUE(again.ok()) << again.status();
    ExpectSamePostings(restarted, reference,
                       "restart after flip_at=" + std::to_string(flip_at));
  }
  // The sweep must exercise both outcomes: flips that the checksums catch
  // (typed) and flips in bytes that end up superseded (clean recovery).
  EXPECT_GT(typed_failures, 0u);
  EXPECT_LT(typed_failures, total_ops);
}

// Three shard images and the manifest flip as one unit through the same
// superblock.
TEST_F(CheckpointCrashSweepTest, ShardedCrashSweepRecoversExactly) {
  CrashAtEveryOp(3);
}

}  // namespace
}  // namespace duplex::core
