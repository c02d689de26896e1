// The durability acceptance bar for the fault-injection subsystem: crash
// the devices at EVERY physical I/O boundary of a batch apply, recover,
// and demand the recovered index be bit-equivalent to the uncrashed
// reference.
//
// Mechanics: devices here are in-memory, so "crash" means the fault layer
// freezes all device I/O at op k (a power cut), the index object is
// dropped (with every dirty cache frame), and recovery starts from a
// freshly constructed index fed by ShardedIndex::ReplayLogged — the WAL
// is the only survivor, exactly the contract the paper's restartable-
// update design promises. Because recovery replays the full log into an
// empty index, the result is always the fully-applied state; the
// batch-not-applied arm of the invariant is covered by the torn-WAL-tail
// tests in core_batch_log_test.cc. One FaultSchedule numbers the ops of
// both shards, and the shards apply one at a time (threads = 1), so op k
// is the same physical write in every run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

#include "core/batch_log.h"
#include "core/directory.h"
#include "core/inverted_index.h"
#include "core/long_list_store.h"
#include "core/sharded_index.h"
#include "storage/fault_injection.h"
#include "text/batch.h"
#include "util/random.h"

namespace duplex {
namespace {

constexpr int kWords = 40;
constexpr int kBatches = 4;
constexpr int kDocsPerBatch = 20;

core::IndexOptions ShardOptions() {
  core::IndexOptions o;
  o.buckets.num_buckets = 32;
  o.buckets.bucket_capacity = 64;
  o.policy = core::Policy::WholeZ();
  o.block_postings = 16;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 16;
  o.disks.block_size_bytes = 128;
  o.disks.checksums = true;
  o.materialize = true;
  // Write-back pool: dirty frames + WAL flush ordering are part of what
  // the sweep must prove correct.
  o.cache.capacity_blocks = 32;
  o.cache.mode = storage::CacheMode::kWriteBack;
  return o;
}

// Two shards over ShardOptions(), applied one at a time. `schedule` (may
// be null) is shared by every shard's disks.
core::ShardedIndexOptions SweepOptions(
    std::shared_ptr<storage::FaultSchedule> schedule = nullptr,
    const core::IndexOptions& shard = ShardOptions()) {
  core::ShardedIndexOptions o;
  o.shard = shard;
  o.shard.disks.fault_schedule = std::move(schedule);
  o.num_shards = 2;
  o.threads = 1;
  return o;
}

uint64_t UsedBlocks(const core::ShardedIndex& index) {
  uint64_t blocks = 0;
  for (uint32_t k = 0; k < index.num_shards(); ++k) {
    blocks += index.shard(k).WithRead([](const core::InvertedIndex& shard) {
      return shard.disks().total_used_blocks();
    });
  }
  return blocks;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<text::InvertedBatch> SweepBatches() {
  std::vector<text::InvertedBatch> batches;
  Rng rng(42);
  DocId next_doc = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<DocId>> lists(kWords);
    for (int d = 0; d < kDocsPerBatch; ++d) {
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

// Full-state diff: stats, structure, free-space accounting, and every
// posting list. Both indexes were built by the same logical batch
// sequence from empty, so every layer must agree exactly.
void ExpectBitEquivalent(const core::ShardedIndex& got,
                         const core::ShardedIndex& want,
                         const std::string& label) {
  ASSERT_TRUE(got.VerifyIntegrity().ok()) << label;
  const core::IndexStats gs = got.Stats();
  const core::IndexStats ws = want.Stats();
  EXPECT_EQ(gs.total_postings, ws.total_postings) << label;
  EXPECT_EQ(gs.bucket_words, ws.bucket_words) << label;
  EXPECT_EQ(gs.long_words, ws.long_words) << label;
  EXPECT_EQ(gs.long_chunks, ws.long_chunks) << label;
  EXPECT_EQ(gs.long_blocks, ws.long_blocks) << label;
  EXPECT_EQ(UsedBlocks(got), UsedBlocks(want)) << label;
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = want.GetPostings(w);
    const Result<std::vector<DocId>> actual = got.GetPostings(w);
    ASSERT_EQ(expect.ok(), actual.ok()) << label << " word " << w;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *actual) << label << " word " << w;
    }
  }
}

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the sweeps as parallel processes.
    wal_path_ = ::testing::TempDir() + "/duplex_crash_sweep_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".wal";
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }
  std::string wal_path_;
};

TEST_F(CrashSweepTest, EveryIoBoundaryRecoversToReference) {
  const std::vector<text::InvertedBatch> batches = SweepBatches();

  // Uncrashed reference.
  core::ShardedIndex reference(SweepOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }

  // Counting run: a schedule with no faults armed still numbers every
  // physical op, giving the sweep its [1, N] range for the final batch.
  uint64_t ops_before = 0;
  uint64_t ops_total = 0;
  {
    auto schedule = std::make_shared<storage::FaultSchedule>(
        storage::FaultScheduleOptions{});
    core::ShardedIndex index(SweepOptions(schedule));
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path_);
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);
    for (size_t b = 0; b + 1 < batches.size(); ++b) {
      ASSERT_TRUE(index.ApplyLogged(log->get(), batches[b], {}).ok());
    }
    ops_before = schedule->ops_issued();
    ASSERT_TRUE(index.ApplyLogged(log->get(), batches.back(), {}).ok());
    // ApplyLogged flushed every dirty frame before MarkApplied, so the op
    // count covers the batch's whole I/O footprint.
    ops_total = schedule->ops_issued();
    ExpectBitEquivalent(index, reference, "counting run");
  }
  const uint64_t n_ops = ops_total - ops_before;
  ASSERT_GT(n_ops, 0u) << "final batch issued no physical I/O";

  // The sweep: crash at every op k of the final batch's apply, recover
  // from the WAL alone, diff everything.
  for (uint64_t k = 1; k <= n_ops; ++k) {
    std::remove(wal_path_.c_str());
    storage::FaultScheduleOptions fault;
    fault.crash_at_op = ops_before + k;
    auto schedule = std::make_shared<storage::FaultSchedule>(fault);
    {
      core::ShardedIndex index(SweepOptions(schedule));
      Result<std::unique_ptr<core::BatchLog>> log =
          core::BatchLog::Open(wal_path_);
      ASSERT_TRUE(log.ok());
      (*log)->set_fsync(false);
      for (size_t b = 0; b + 1 < batches.size(); ++b) {
        ASSERT_TRUE(index.ApplyLogged(log->get(), batches[b], {}).ok())
            << "crash point " << k << " fired before the final batch";
      }
      const Status crashed =
          index.ApplyLogged(log->get(), batches.back(), {}).status();
      ASSERT_FALSE(crashed.ok()) << "crash at op " << k << " did not fire";
      ASSERT_TRUE(crashed.IsIoError()) << crashed;
      // The batch record went durable before any index I/O, so the WAL
      // must list it as unapplied.
      EXPECT_EQ((*log)->UnappliedBatches().size(), 1u) << "crash " << k;
      // Power cut: index object, dirty frames, devices — all dropped.
    }

    core::ShardedIndex recovered(SweepOptions());
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path_);
    ASSERT_TRUE(log.ok()) << "crash " << k;
    (*log)->set_fsync(false);
    ASSERT_EQ((*log)->batches_logged(), batches.size()) << "crash " << k;
    ASSERT_TRUE(recovered.ReplayLogged(log->get(), 0).ok()) << "crash " << k;
    EXPECT_EQ((*log)->UnappliedBatches().size(), 0u) << "crash " << k;
    ExpectBitEquivalent(recovered, reference,
                        "crash at op " + std::to_string(k));
  }
}

// One compaction round over every shard, then the cache flush that puts
// its rewritten chunks on the devices.
Status CompactAndFlush(core::ShardedIndex& index) {
  Result<core::CompactionStats> round = index.CompactOnce();
  if (!round.ok()) return round.status();
  return index.FlushCaches();
}

// The same bar for online compaction: crash the devices at EVERY physical
// I/O boundary of a compaction round (chunk reads, merged-chunk write,
// cache write-back), recover from the WAL alone, and demand the recovered
// index be bit-equivalent to a never-compacted reference — no posting
// lost or duplicated, no block leaked. Compaction never changes logical
// state and writes nothing to the WAL, so full replay of the applied
// batches is always the correct recovery regardless of where inside the
// round the power died.
TEST_F(CrashSweepTest, CompactionEveryIoBoundaryRecoversToReference) {
  // New-style chunks with 2x proportional reserve fragment hard, giving
  // the compactor real multi-chunk, low-utilization lists to rewrite.
  core::IndexOptions fragmenting = ShardOptions();
  fragmenting.policy =
      core::Policy::NewZ(core::AllocStrategy::kProportional, 2.0);

  const std::vector<text::InvertedBatch> batches = SweepBatches();
  core::ShardedIndex reference(SweepOptions(nullptr, fragmenting));
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }

  // Counting run: apply everything, then number the compaction round's
  // physical ops.
  uint64_t ops_before = 0;
  uint64_t ops_total = 0;
  {
    auto schedule = std::make_shared<storage::FaultSchedule>(
        storage::FaultScheduleOptions{});
    core::ShardedIndex index(SweepOptions(schedule, fragmenting));
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path_);
    ASSERT_TRUE(log.ok());
    (*log)->set_fsync(false);
    for (const auto& batch : batches) {
      ASSERT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok());
    }
    ops_before = schedule->ops_issued();
    const std::string wal_before = FileBytes(wal_path_);
    ASSERT_TRUE(CompactAndFlush(index).ok());
    ops_total = schedule->ops_issued();
    ASSERT_GT(index.compaction_totals().lists_compacted, 0u)
        << "workload produced nothing to compact";
    EXPECT_EQ(FileBytes(wal_path_), wal_before);
    // Compaction changed layout, not logic: postings still match the
    // never-compacted reference, and nothing leaked.
    ASSERT_TRUE(index.VerifyIntegrity().ok());
    for (WordId w = 0; w < kWords; ++w) {
      const Result<std::vector<DocId>> expect = reference.GetPostings(w);
      const Result<std::vector<DocId>> got = index.GetPostings(w);
      ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
      if (expect.ok()) {
        EXPECT_EQ(*expect, *got) << "word " << w;
      }
    }
    EXPECT_LE(UsedBlocks(index), UsedBlocks(reference));
  }
  const uint64_t n_ops = ops_total - ops_before;
  ASSERT_GT(n_ops, 0u) << "compaction issued no physical I/O";

  // The sweep: crash at every op k inside the compaction round.
  for (uint64_t k = 1; k <= n_ops; ++k) {
    std::remove(wal_path_.c_str());
    storage::FaultScheduleOptions fault;
    fault.crash_at_op = ops_before + k;
    auto schedule = std::make_shared<storage::FaultSchedule>(fault);
    {
      core::ShardedIndex index(SweepOptions(schedule, fragmenting));
      Result<std::unique_ptr<core::BatchLog>> log =
          core::BatchLog::Open(wal_path_);
      ASSERT_TRUE(log.ok());
      (*log)->set_fsync(false);
      for (const auto& batch : batches) {
        ASSERT_TRUE(index.ApplyLogged(log->get(), batch, {}).ok())
            << "crash point " << k << " fired before compaction";
      }
      const std::string wal_before = FileBytes(wal_path_);
      const Status crashed = CompactAndFlush(index);
      ASSERT_FALSE(crashed.ok()) << "crash at op " << k << " did not fire";
      ASSERT_TRUE(crashed.IsIoError()) << crashed;
      // Every batch was applied and marked before the round started; the
      // torn round must not have touched the WAL at all.
      EXPECT_EQ((*log)->UnappliedBatches().size(), 0u) << "crash " << k;
      EXPECT_EQ(FileBytes(wal_path_), wal_before) << "crash " << k;
      // Power cut: index object, dirty frames, devices — all dropped.
    }

    core::ShardedIndex recovered(SweepOptions(nullptr, fragmenting));
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path_);
    ASSERT_TRUE(log.ok()) << "crash " << k;
    (*log)->set_fsync(false);
    ASSERT_EQ((*log)->batches_logged(), batches.size()) << "crash " << k;
    ASSERT_TRUE(recovered.ReplayLogged(log->get(), 0).ok()) << "crash " << k;
    // Replay rebuilds the fully-applied, never-compacted state: exactly
    // the reference, chunk for chunk — no posting lost or duplicated, no
    // block leaked to a half-finished rewrite.
    ExpectBitEquivalent(recovered, reference,
                        "compaction crash at op " + std::to_string(k));
  }
}

// Acceptance: silent bit flips planted below the checksum layer are
// DETECTED — a query returns either the exact reference postings (block
// still clean or cache-resident) or kCorruption, never wrong postings.
TEST_F(CrashSweepTest, BitFlipsNeverReturnGarbagePostings) {
  const std::vector<text::InvertedBatch> batches = SweepBatches();
  core::IndexOptions options = ShardOptions();
  options.cache.capacity_blocks = 0;  // every read hits the device
  core::InvertedIndex reference(options);
  core::InvertedIndex index(options);
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(index.ApplyInvertedBatch(batch).ok());
  }

  // Rot one live block per long word, straight onto the base devices.
  Rng rot(2026);
  uint64_t flips = 0;
  const auto& lists = index.long_list_store().directory().lists();
  for (const auto& [word, list] : lists) {
    for (const core::ChunkRef& chunk : list.chunks) {
      if (chunk.byte_length == 0) continue;
      const uint64_t offset = rot.Uniform(chunk.byte_length);
      storage::MemBlockDevice* dev = index.disks().base_device(chunk.range.disk);
      uint8_t byte = 0;
      ASSERT_TRUE(dev->Read(chunk.range.start, offset, &byte, 1).ok());
      byte ^= uint8_t{1} << rot.Uniform(8);
      ASSERT_TRUE(dev->Write(chunk.range.start, offset, &byte, 1).ok());
      ++flips;
      break;
    }
  }
  ASSERT_GT(flips, 0u);

  uint64_t detected = 0;
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = index.GetPostings(w);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsCorruption()) << got.status();
      ++detected;
      continue;
    }
    // A clean answer must be the right answer.
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    EXPECT_EQ(*expect, *got) << "word " << w;
  }
  // Every flipped word was caught (each flip damages one word's chunk;
  // uncached reads must verify it).
  EXPECT_EQ(detected, flips);
}

}  // namespace
}  // namespace duplex
