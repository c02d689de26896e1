// Checkpoint + recover round trips through the manifest layout: batches,
// document path, damaged-candidate fallback, and the typed degradation ladder
// (fast path -> older install -> full rebuild -> kCorruption when the WAL
// tail is gone too). Crash-at-every-op sweeps live in
// integration_checkpoint_crash_sweep_test.cc.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/sharded_index.h"
#include "storage/superblock.h"
#include "text/batch.h"
#include "util/hash.h"
#include "util/random.h"

namespace duplex::core {
namespace {

namespace fs = std::filesystem;

constexpr int kWords = 48;

IndexOptions SmallOptions() {
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
  return options;
}

std::vector<text::InvertedBatch> MakeBatches(int count, uint64_t seed) {
  std::vector<text::InvertedBatch> batches;
  Rng rng(seed);
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

ShardedIndexOptions ShardedOptions(uint32_t shards = 3) {
  ShardedIndexOptions options;
  options.shard = SmallOptions();
  options.num_shards = shards;
  return options;
}

void ExpectSamePostings(const ShardedIndex& recovered,
                        const ShardedIndex& reference) {
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *got) << "word " << w;
    }
    EXPECT_EQ(reference.Locate(w).exists, recovered.Locate(w).exists)
        << "word " << w;
    EXPECT_EQ(reference.Locate(w).is_long, recovered.Locate(w).is_long)
        << "word " << w;
  }
  EXPECT_EQ(reference.next_doc_id(), recovered.next_doc_id());
  EXPECT_EQ(reference.deleted_count(), recovered.deleted_count());
  for (DocId d = 0; d < reference.next_doc_id(); ++d) {
    EXPECT_EQ(reference.IsDeleted(d), recovered.IsDeleted(d)) << "doc " << d;
  }
  const IndexStats expect_stats = reference.Stats();
  const IndexStats got_stats = recovered.Stats();
  EXPECT_EQ(expect_stats.total_postings, got_stats.total_postings);
  EXPECT_EQ(expect_stats.long_words, got_stats.long_words);
  EXPECT_EQ(expect_stats.bucket_words, got_stats.bucket_words);
  EXPECT_TRUE(recovered.VerifyIntegrity().ok());
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/duplex_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    prefix_ = dir_ + "/idx";
    wal_path_ = dir_ + "/idx.wal";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::unique_ptr<BatchLog> OpenLog() {
    Result<std::unique_ptr<BatchLog>> log = BatchLog::Open(wal_path_);
    EXPECT_TRUE(log.ok()) << log.status();
    (*log)->set_fsync(false);
    return std::move(*log);
  }

  Checkpointer MakeCheckpointer(bool truncate_wal = true) {
    CheckpointOptions options;
    options.prefix = prefix_;
    options.truncate_wal = truncate_wal;
    return Checkpointer(options);
  }

  // Flips one byte in the middle of `path`.
  void CorruptFile(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 0);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  std::string dir_;
  std::string prefix_;
  std::string wal_path_;
};

TEST_F(CheckpointTest, EmptyIndexRoundTrip) {
  ShardedIndex index(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, nullptr);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->install_seq, 1u);
  EXPECT_EQ(info->wal_epoch, 0u);

  ShardedIndex recovered(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->batches_replayed, 0u);
  EXPECT_TRUE(recovered.VerifyIntegrity().ok());
}

TEST_F(CheckpointTest, RoundTripCoversAllStateAndReplaysNothing) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 17);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }
  index.DeleteDocument(3);
  reference.DeleteDocument(3);

  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->wal_epoch, 6u);
  // The WAL now holds only the (empty) tail.
  EXPECT_EQ(log->base_epoch(), 6u);
  EXPECT_EQ(log->next_id(), 6u);

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->checkpoint_epoch, 6u);
  EXPECT_EQ(rec->batches_replayed, 0u);
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, RecoverReplaysOnlyTheTail) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 23);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 3) {
      ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());
    }
  }

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->checkpoint_epoch, 4u);
  EXPECT_EQ(rec->batches_replayed, 2u);
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, DocumentPathSurvivesWithVocabulary) {
  ShardedIndex index(ShardedOptions());
  index.AddDocument("the quick brown fox");
  index.AddDocument("the lazy dog sleeps");
  index.AddDocument("quick dog quick fox");
  ASSERT_TRUE(index.FlushDocuments().ok());
  index.DeleteDocument(1);

  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, nullptr).ok());

  ShardedIndex recovered(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // String lookups must resolve through the restored vocabulary.
  Result<std::vector<DocId>> quick = recovered.GetPostings("quick");
  ASSERT_TRUE(quick.ok()) << quick.status();
  EXPECT_EQ(*quick, (std::vector<DocId>{0, 2}));
  // Doc 1 is deleted, so the restored deletion set must filter it.
  Result<std::vector<DocId>> the_docs = recovered.GetPostings("the");
  ASSERT_TRUE(the_docs.ok());
  EXPECT_EQ(*the_docs, (std::vector<DocId>{0}));
  EXPECT_EQ(recovered.next_doc_id(), 3u);
  EXPECT_EQ(recovered.deleted_count(), 1u);
  EXPECT_TRUE(recovered.IsDeleted(1));
}

// What a delete promises: the WAL has no delete record, so a deletion is
// durable only once a checkpoint captures the deletion set. Recovery from
// an older checkpoint plus the WAL tail brings the document back.
TEST_F(CheckpointTest, DeleteIsDurableOnlyOnceACheckpointHoldsIt) {
  const auto recover_fox = [&] {
    ShardedIndex recovered(ShardedOptions());
    std::unique_ptr<BatchLog> reopened = OpenLog();
    Result<RecoveryInfo> rec =
        MakeCheckpointer().Recover(&recovered, reopened.get());
    EXPECT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
    Result<std::vector<DocId>> fox = recovered.GetPostings("fox");
    EXPECT_TRUE(fox.ok()) << fox.status();
    return fox.ok() ? *fox : std::vector<DocId>{};
  };
  {
    std::unique_ptr<BatchLog> log = OpenLog();
    ShardedIndex index(ShardedOptions());
    index.AddDocument("the quick brown fox");
    index.AddDocument("a lazy fox");
    ASSERT_TRUE(index.FlushDocuments(log.get()).ok());
    ASSERT_TRUE(MakeCheckpointer().Checkpoint(index, log.get()).ok());
    index.AddDocument("a third fox");
    ASSERT_TRUE(index.FlushDocuments(log.get()).ok());
    index.DeleteDocument(1);
    EXPECT_EQ(*index.GetPostings("fox"), (std::vector<DocId>{0, 2}));
  }
  // Last checkpoint + WAL tail: the delete came after the checkpoint and
  // the log never saw it, so document 1 is back.
  EXPECT_EQ(recover_fox(), (std::vector<DocId>{0, 1, 2}));
  {
    std::unique_ptr<BatchLog> log = OpenLog();
    ShardedIndex index(ShardedOptions());
    ASSERT_TRUE(MakeCheckpointer().Recover(&index, log.get()).ok());
    index.DeleteDocument(1);
    ASSERT_TRUE(MakeCheckpointer().Checkpoint(index, log.get()).ok());
  }
  // Delete, checkpoint, recover: it stays deleted.
  EXPECT_EQ(recover_fox(), (std::vector<DocId>{0, 2}));
}

TEST_F(CheckpointTest, CompactionTotalsSurviveRecovery) {
  ShardedIndexOptions options = ShardedOptions();
  options.shard.policy = Policy::NewZ(AllocStrategy::kProportional, 2);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(options);
  for (const auto& batch : MakeBatches(8, 31)) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
  }
  Result<CompactionStats> round = index.CompactOnce();
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_GT(index.compaction_totals().lists_examined, 0u);

  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());

  ShardedIndex recovered(options);
  std::unique_ptr<BatchLog> reopened = OpenLog();
  ASSERT_TRUE(checkpointer.Recover(&recovered, reopened.get()).ok());
  EXPECT_EQ(recovered.compaction_totals().lists_examined,
            index.compaction_totals().lists_examined);
  EXPECT_EQ(recovered.compaction_totals().lists_compacted,
            index.compaction_totals().lists_compacted);
}

TEST_F(CheckpointTest, UnappliedBatchBlocksCheckpoint) {
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  text::InvertedBatch batch;
  batch.entries.push_back({WordId{1}, {DocId{0}}});
  ASSERT_TRUE(log->AppendBatch(batch).ok());  // durable but never applied

  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
  EXPECT_TRUE(info.status().IsFailedPrecondition()) << info.status();
}

// A checkpoint truncates the WAL to a lone truncation record. A bit flip
// in it is dropped as a torn final record, so the log reopens at next id
// 0 under an epoch-3 checkpoint; it would hand out ids the checkpoint
// covers, which the next restart then skips. Recovery must refuse typed.
TEST_F(CheckpointTest, WalThatReopensBehindTheCheckpointIsTypedCorruption) {
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  for (const auto& batch : MakeBatches(3, 53)) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
  }
  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());
  ASSERT_EQ(log->base_epoch(), 3u);
  ASSERT_EQ(log->batches_logged(), 0u);
  log.reset();
  CorruptFile(wal_path_);

  std::unique_ptr<BatchLog> reopened = OpenLog();
  ASSERT_EQ(reopened->base_epoch(), 0u);
  ASSERT_EQ(reopened->next_id(), 0u);
  ShardedIndex recovered(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

// A fresh, empty WAL beside an epoch-3 checkpoint is the same hazard.
TEST_F(CheckpointTest, FreshWalBesideACheckpointIsTypedCorruption) {
  {
    std::unique_ptr<BatchLog> log = OpenLog();
    ShardedIndex index(ShardedOptions());
    for (const auto& batch : MakeBatches(3, 59)) {
      ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
    }
    ASSERT_TRUE(MakeCheckpointer().Checkpoint(index, log.get()).ok());
  }
  ASSERT_TRUE(fs::remove(wal_path_));

  std::unique_ptr<BatchLog> fresh = OpenLog();
  ShardedIndex recovered(ShardedOptions());
  Result<RecoveryInfo> rec =
      MakeCheckpointer().Recover(&recovered, fresh.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

TEST_F(CheckpointTest, NoCheckpointEmptyLogIsEmpty) {
  Checkpointer checkpointer = MakeCheckpointer();
  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, log.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kEmpty);
}

TEST_F(CheckpointTest, NoCheckpointFullHistoryRebuilds) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 41);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }

  Checkpointer checkpointer = MakeCheckpointer();
  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kFullRebuild);
  EXPECT_EQ(rec->batches_replayed, 4u);
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, DamagedNewestImageFallsBackToPreviousInstall) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 47);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  // Keep full history in the WAL so the older checkpoint's longer tail is
  // still replayable after the newest image rots.
  Checkpointer checkpointer = MakeCheckpointer(/*truncate_wal=*/false);
  std::string newest_path;
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 2 || b == 4) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok()) << info.status();
      newest_path = info->payload_path;
    }
  }
  CorruptFile(newest_path + "-shard0");

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->checkpoint_epoch, 3u);  // the older install (after batch 2)
  EXPECT_EQ(rec->batches_replayed, 3u);
  EXPECT_NE(rec->detail.find("reject"), std::string::npos) << rec->detail;
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, AllImagesDamagedFullHistoryRebuilds) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 53);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer(/*truncate_wal=*/false);
  std::vector<std::string> manifests;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 1 || b == 2) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok());
      manifests.push_back(info->payload_path);
    }
  }
  for (const std::string& manifest : manifests) CorruptFile(manifest);

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kFullRebuild);
  EXPECT_EQ(rec->batches_replayed, 4u);
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, DamagedImagePlusTruncatedWalIsTypedCorruption) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 59);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();  // truncates the WAL
  std::string image;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    if (b == 2) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok());
      image = info->payload_path;
    }
  }
  CorruptFile(image + "-shard2");

  // The only checkpoint is damaged AND the WAL prefix it covered is gone:
  // recovery must fail typed, never hand back a partial index.
  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

// Rejecting every installed checkpoint with no WAL history to rebuild
// from must fail typed: the install proves the index held documents, so
// an empty index would silently lose all of them.
TEST_F(CheckpointTest, DamagedImageWithoutWalHistoryIsTypedCorruption) {
  ShardedIndex index(ShardedOptions());
  ASSERT_TRUE(index.ApplyInvertedBatch(MakeBatches(1, 73).front()).ok());
  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, nullptr);
  ASSERT_TRUE(info.ok()) << info.status();
  CorruptFile(info->payload_path + "-shard1");

  ShardedIndex without_log(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&without_log, nullptr);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();

  ShardedIndex with_empty_log(ShardedOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  rec = checkpointer.Recover(&with_empty_log, log.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

TEST_F(CheckpointTest, GeometryMismatchIsFailedPrecondition) {
  ShardedIndex index(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, nullptr).ok());

  ShardedIndexOptions other = ShardedOptions();
  other.shard.buckets.num_buckets = 32;  // different geometry
  ShardedIndex recovered(other);
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  EXPECT_TRUE(rec.status().IsFailedPrecondition()) << rec.status();
}

TEST_F(CheckpointTest, StaleCheckpointFilesAreRemoved) {
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  std::vector<std::string> manifests;
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 61);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[round], {}).ok());
    Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
    ASSERT_TRUE(info.ok());
    manifests.push_back(info->payload_path);
  }
  // Both superblock slots stay referenced (fallback), everything older is
  // garbage-collected, shard images with their manifest.
  for (int round = 0; round < 4; ++round) {
    const bool kept = round >= 2;
    EXPECT_EQ(fs::exists(manifests[round]), kept) << round;
    for (uint32_t k = 0; k < 3; ++k) {
      EXPECT_EQ(fs::exists(manifests[round] + "-shard" + std::to_string(k)),
                kept)
          << round << " shard " << k;
    }
  }
}

TEST_F(CheckpointTest, ShardedRoundTripThroughManifest) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 67);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 3) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok()) << info.status();
      // Manifest plus one image per shard.
      EXPECT_TRUE(fs::exists(info->payload_path));
      for (uint32_t s = 0; s < 3; ++s) {
        EXPECT_TRUE(fs::exists(info->payload_path + "-shard" +
                               std::to_string(s)));
      }
    }
  }

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->batches_replayed, 2u);
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *got) << "word " << w;
    }
  }
}

TEST_F(CheckpointTest, ShardedDocumentPathSurvives) {
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  index.AddDocument("alpha beta gamma");
  index.AddDocument("beta delta epsilon");
  ASSERT_TRUE(index.FlushDocuments(log.get()).ok());
  index.DeleteDocument(0);

  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  // Doc 0 is deleted, so the restored deletion set must filter it.
  Result<std::vector<DocId>> beta = recovered.GetPostings("beta");
  ASSERT_TRUE(beta.ok()) << beta.status();
  EXPECT_EQ(*beta, (std::vector<DocId>{1}));
  EXPECT_EQ(recovered.next_doc_id(), 2u);
  EXPECT_EQ(recovered.deleted_count(), 1u);
}

TEST_F(CheckpointTest, ShardedShardCountMismatchIsFailedPrecondition) {
  ShardedIndex index(ShardedOptions(3));
  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, nullptr).ok());

  ShardedIndex recovered(ShardedOptions(4));
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  EXPECT_TRUE(rec.status().IsFailedPrecondition()) << rec.status();
}

TEST_F(CheckpointTest, ShardedDamagedShardImageFallsBackToFullRebuild) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 71);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer(/*truncate_wal=*/false);
  std::string manifest;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batches[b], {}).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 2) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok());
      manifest = info->payload_path;
    }
  }
  CorruptFile(manifest + "-shard1");

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kFullRebuild);
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *got) << "word " << w;
    }
  }
}

// An intact install whose payload is not a manifest (here: a shard image,
// checksummed and installed like one) is rejected. With no WAL history
// that is typed Corruption, never an empty index served as OK.
TEST_F(CheckpointTest, ShardedRejectedInstallWithoutWalIsTypedCorruption) {
  ShardedIndex index(ShardedOptions());
  ASSERT_TRUE(index.ApplyInvertedBatch(MakeBatches(1, 79).front()).ok());
  CheckpointOptions other;
  other.prefix = dir_ + "/other";
  Result<CheckpointInfo> info = Checkpointer(other).Checkpoint(index, nullptr);
  ASSERT_TRUE(info.ok()) << info.status();
  std::string image;
  {
    std::ifstream in(info->payload_path + "-shard0", std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(image.empty());
  {
    std::ofstream out(prefix_ + ".ckpt-1", std::ios::binary);
    out << image;
  }
  Result<std::unique_ptr<storage::Superblock>> sb =
      storage::Superblock::Open(prefix_ + ".super");
  ASSERT_TRUE(sb.ok()) << sb.status();
  storage::SuperblockRecord record;
  record.payload_bytes = image.size();
  record.payload_checksum = Fnv1a64(image.data(), image.size());
  record.payload_path = "idx.ckpt-1";
  ASSERT_TRUE((*sb)->Install(record).ok());
  Checkpointer checkpointer = MakeCheckpointer();

  ShardedIndex without_log(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&without_log, nullptr);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();

  ShardedIndex with_empty_log(ShardedOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  rec = checkpointer.Recover(&with_empty_log, log.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

// A checkpoint written by the previous release, whose shards still each
// kept a copy of the deletion set: a 2-shard index of 12 documents in 3
// logged flushes, docs 2 and 7 deleted, then a checkpoint at epoch 3 that
// truncated the WAL to a lone truncation record.
constexpr unsigned char kGoldenManifest[] = {
    0x44, 0x50, 0x58, 0x4d, 0x41, 0x4e, 0x49, 0x31, 0x01, 0x01, 0x03, 0x02,
    0x11, 0x69, 0x64, 0x78, 0x2e, 0x63, 0x6b, 0x70, 0x74, 0x2d, 0x31, 0x2d,
    0x73, 0x68, 0x61, 0x72, 0x64, 0x30, 0x6b, 0x73, 0x75, 0xac, 0x57, 0x92,
    0x0e, 0x85, 0xfb, 0x11, 0x69, 0x64, 0x78, 0x2e, 0x63, 0x6b, 0x70, 0x74,
    0x2d, 0x31, 0x2d, 0x73, 0x68, 0x61, 0x72, 0x64, 0x31, 0x65, 0xb0, 0x4a,
    0x0d, 0xdb, 0xb0, 0x0c, 0x38, 0x28, 0x21, 0x04, 0x67, 0x72, 0x6f, 0x77,
    0x02, 0x69, 0x6e, 0x08, 0x69, 0x6e, 0x76, 0x65, 0x72, 0x74, 0x65, 0x64,
    0x05, 0x6c, 0x69, 0x73, 0x74, 0x73, 0x05, 0x70, 0x6c, 0x61, 0x63, 0x65,
    0x07, 0x62, 0x75, 0x63, 0x6b, 0x65, 0x74, 0x73, 0x04, 0x68, 0x6f, 0x6c,
    0x64, 0x05, 0x73, 0x68, 0x6f, 0x72, 0x74, 0x06, 0x63, 0x68, 0x75, 0x6e,
    0x6b, 0x73, 0x04, 0x6c, 0x69, 0x76, 0x65, 0x04, 0x6c, 0x6f, 0x6e, 0x67,
    0x04, 0x66, 0x69, 0x6c, 0x6c, 0x04, 0x6d, 0x6f, 0x76, 0x65, 0x04, 0x77,
    0x68, 0x65, 0x6e, 0x07, 0x62, 0x61, 0x74, 0x63, 0x68, 0x65, 0x73, 0x05,
    0x64, 0x61, 0x69, 0x6c, 0x79, 0x05, 0x70, 0x61, 0x70, 0x65, 0x72, 0x03,
    0x74, 0x68, 0x65, 0x07, 0x75, 0x70, 0x64, 0x61, 0x74, 0x65, 0x73, 0x05,
    0x73, 0x68, 0x61, 0x72, 0x65, 0x03, 0x67, 0x65, 0x74, 0x08, 0x72, 0x65,
    0x73, 0x65, 0x72, 0x76, 0x65, 0x64, 0x05, 0x73, 0x70, 0x61, 0x63, 0x65,
    0x01, 0x61, 0x07, 0x64, 0x65, 0x6c, 0x65, 0x74, 0x65, 0x64, 0x09, 0x64,
    0x6f, 0x63, 0x75, 0x6d, 0x65, 0x6e, 0x74, 0x73, 0x03, 0x66, 0x6f, 0x72,
    0x05, 0x73, 0x77, 0x65, 0x65, 0x70, 0x04, 0x77, 0x61, 0x69, 0x74, 0x06,
    0x61, 0x72, 0x72, 0x69, 0x76, 0x65, 0x07, 0x71, 0x75, 0x65, 0x72, 0x69,
    0x65, 0x73, 0x04, 0x72, 0x65, 0x61, 0x64, 0x08, 0x72, 0x65, 0x77, 0x72,
    0x69, 0x74, 0x65, 0x73, 0x0c, 0x02, 0x02, 0x05, 0x6a, 0xd7, 0xb2, 0x34,
    0x53, 0x68, 0xdc, 0xc9,
};
constexpr unsigned char kGoldenShard0[] = {
    0x44, 0x50, 0x58, 0x43, 0x4b, 0x50, 0x54, 0x31, 0x01, 0x01, 0x03, 0x02,
    0x80, 0x08, 0x80, 0x01, 0x02, 0x06, 0x0d, 0x01, 0x03, 0x00, 0x02, 0x07,
    0x03, 0x09, 0x00, 0x01, 0x01, 0x01, 0x02, 0x01, 0x02, 0x02, 0x01, 0x05,
    0x02, 0x01, 0x04, 0x07, 0x02, 0x01, 0x04, 0x09, 0x01, 0x02, 0x0b, 0x01,
    0x03, 0x0d, 0x01, 0x03, 0x0f, 0x01, 0x04, 0x11, 0x01, 0x04, 0x13, 0x01,
    0x05, 0x15, 0x01, 0x06, 0x17, 0x02, 0x07, 0x04, 0x1b, 0x02, 0x07, 0x04,
    0x03, 0x19, 0x01, 0x07, 0x1d, 0x01, 0x09, 0x1f, 0x01, 0x0a, 0x00, 0x0c,
    0x02, 0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x96, 0x2f, 0x30, 0x1f, 0x86, 0xc7, 0x9b, 0x55,
};
constexpr unsigned char kGoldenShard1[] = {
    0x44, 0x50, 0x58, 0x43, 0x4b, 0x50, 0x54, 0x31, 0x01, 0x01, 0x03, 0x02,
    0x80, 0x08, 0x80, 0x01, 0x02, 0x06, 0x0e, 0x00, 0x01, 0x00, 0x02, 0x01,
    0x00, 0x04, 0x01, 0x00, 0x06, 0x01, 0x01, 0x08, 0x02, 0x02, 0x01, 0x0a,
    0x03, 0x02, 0x04, 0x04, 0x0c, 0x01, 0x03, 0x0e, 0x02, 0x04, 0x05, 0x10,
    0x01, 0x04, 0x12, 0x02, 0x04, 0x05, 0x14, 0x01, 0x06, 0x16, 0x01, 0x06,
    0x18, 0x01, 0x07, 0x1a, 0x01, 0x07, 0x03, 0x1c, 0x01, 0x07, 0x1e, 0x01,
    0x0a, 0x20, 0x01, 0x0b, 0x00, 0x0c, 0x02, 0x02, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0xba, 0x26,
    0x51, 0x9a, 0x6b, 0x7b, 0x89,
};
constexpr unsigned char kGoldenWal[] = {
    0x45, 0x01, 0x03, 0x79, 0xcf, 0x95, 0xb5, 0x07, 0x0d, 0xfb, 0x08,
};

std::string Bytes(const unsigned char* data, size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

ShardedIndexOptions GoldenOptions() {
  IndexOptions options;
  options.buckets.num_buckets = 4;
  options.buckets.bucket_capacity = 6;
  options.policy = Policy::NewZ();
  options.block_postings = 4;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 10;
  options.disks.block_size_bytes = 128;
  options.materialize = true;
  return ShardedIndexOptions::Partition(options, 2, 1);
}

// The checkpoint files keep their format: the golden manifest, shard
// images and WAL restore, and checkpointing the restored index writes the
// same bytes again.
TEST_F(CheckpointTest, GoldenImagesRestoreAndReencodeByteIdentical) {
  const std::string manifest =
      Bytes(kGoldenManifest, sizeof(kGoldenManifest));
  const std::string shard0 = Bytes(kGoldenShard0, sizeof(kGoldenShard0));
  const std::string shard1 = Bytes(kGoldenShard1, sizeof(kGoldenShard1));
  const std::string wal = Bytes(kGoldenWal, sizeof(kGoldenWal));
  WriteBytes(prefix_ + ".ckpt-1", manifest);
  WriteBytes(prefix_ + ".ckpt-1-shard0", shard0);
  WriteBytes(prefix_ + ".ckpt-1-shard1", shard1);
  WriteBytes(wal_path_, wal);
  {
    Result<std::unique_ptr<storage::Superblock>> sb =
        storage::Superblock::Open(prefix_ + ".super");
    ASSERT_TRUE(sb.ok()) << sb.status();
    storage::SuperblockRecord record;
    record.wal_epoch = 3;
    record.payload_bytes = manifest.size();
    record.payload_checksum = Fnv1a64(manifest.data(), manifest.size());
    record.payload_path = "idx.ckpt-1";
    ASSERT_TRUE((*sb)->Install(record).ok());
  }

  ShardedIndex recovered(GoldenOptions());
  {
    std::unique_ptr<BatchLog> log = OpenLog();
    Result<RecoveryInfo> rec =
        MakeCheckpointer().Recover(&recovered, log.get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
    EXPECT_EQ(rec->checkpoint_epoch, 3u);
    EXPECT_EQ(rec->batches_replayed, 0u);
  }
  EXPECT_TRUE(recovered.VerifyIntegrity().ok());
  EXPECT_EQ(recovered.next_doc_id(), 12u);
  EXPECT_EQ(recovered.deleted_count(), 2u);
  EXPECT_TRUE(recovered.IsDeleted(2));
  EXPECT_TRUE(recovered.IsDeleted(7));
  Result<std::vector<DocId>> lists = recovered.GetPostings("lists");
  ASSERT_TRUE(lists.ok()) << lists.status();
  EXPECT_EQ(*lists, (std::vector<DocId>{0, 1, 3, 5, 6, 8, 10, 11}));
  Result<std::vector<DocId>> sweep = recovered.GetPostings("sweep");
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(*sweep, (std::vector<DocId>{11}));

  const std::string again = dir_ + "/again";
  fs::create_directories(again);
  WriteBytes(again + "/idx.wal", wal);
  {
    Result<std::unique_ptr<BatchLog>> log =
        BatchLog::Open(again + "/idx.wal");
    ASSERT_TRUE(log.ok()) << log.status();
    (*log)->set_fsync(false);
    CheckpointOptions options;
    options.prefix = again + "/idx";
    Result<CheckpointInfo> info =
        Checkpointer(options).Checkpoint(recovered, log->get());
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->wal_epoch, 3u);
  }
  EXPECT_EQ(ReadBytes(again + "/idx.ckpt-1"), manifest);
  EXPECT_EQ(ReadBytes(again + "/idx.ckpt-1-shard0"), shard0);
  EXPECT_EQ(ReadBytes(again + "/idx.ckpt-1-shard1"), shard1);
  EXPECT_EQ(ReadBytes(again + "/idx.wal"), wal);
}

// TSan target: checkpoints run against a quiesced view while reader
// threads hammer queries — no torn reads, every checkpoint restorable.
TEST_F(CheckpointTest, CheckpointStressWithConcurrentReaders) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(8, 73);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &stop, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const WordId w = static_cast<WordId>(rng.Uniform(kWords));
        (void)index.GetPostings(w);
        (void)index.Locate(w);
      }
    });
  }

  for (const auto& batch : batches) {
    ASSERT_TRUE(index.ApplyLogged(log.get(), batch, {}).ok());
    Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
    ASSERT_TRUE(info.ok()) << info.status();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ShardedIndex recovered(ShardedOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = index.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) {
      EXPECT_EQ(*expect, *got) << "word " << w;
    }
  }
}

}  // namespace
}  // namespace duplex::core
