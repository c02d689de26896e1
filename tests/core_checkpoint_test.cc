// Checkpoint + recover round trips: single index, document path, sharded
// manifests, damaged-candidate fallback, and the typed degradation ladder
// (fast path -> older install -> full rebuild -> kCorruption when the WAL
// tail is gone too). Crash-at-every-op sweeps live in
// integration_checkpoint_crash_sweep_test.cc.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/sharded_index.h"
#include "text/batch.h"
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

void ExpectSamePostings(const InvertedIndex& recovered,
                        const InvertedIndex& reference) {
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = recovered.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
    EXPECT_EQ(reference.Locate(w).exists, recovered.Locate(w).exists)
        << "word " << w;
    EXPECT_EQ(reference.Locate(w).is_long, recovered.Locate(w).is_long)
        << "word " << w;
  }
  EXPECT_EQ(reference.next_doc_id(), recovered.next_doc_id());
  EXPECT_EQ(reference.deleted_docs(), recovered.deleted_docs());
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
  InvertedIndex index(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, nullptr);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->install_seq, 1u);
  EXPECT_EQ(info->wal_epoch, 0u);

  InvertedIndex recovered(SmallOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->batches_replayed, 0u);
  EXPECT_TRUE(recovered.VerifyIntegrity().ok());
}

TEST_F(CheckpointTest, RoundTripCoversAllStateAndReplaysNothing) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 17);
  std::unique_ptr<BatchLog> log = OpenLog();
  InvertedIndex index(SmallOptions());
  InvertedIndex reference(SmallOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(log->ApplyLogged(&index, batch).ok());
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

  InvertedIndex recovered(SmallOptions());
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
  InvertedIndex index(SmallOptions());
  InvertedIndex reference(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(log->ApplyLogged(&index, batches[b]).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 3) {
      ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());
    }
  }

  InvertedIndex recovered(SmallOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kCheckpointTail);
  EXPECT_EQ(rec->checkpoint_epoch, 4u);
  EXPECT_EQ(rec->batches_replayed, 2u);
  ExpectSamePostings(recovered, reference);
}

TEST_F(CheckpointTest, DocumentPathSurvivesWithVocabulary) {
  InvertedIndex index(SmallOptions());
  index.AddDocument("the quick brown fox");
  index.AddDocument("the lazy dog sleeps");
  index.AddDocument("quick dog quick fox");
  ASSERT_TRUE(index.FlushDocuments().ok());
  index.DeleteDocument(1);

  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, nullptr).ok());

  InvertedIndex recovered(SmallOptions());
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
  EXPECT_EQ(recovered.deleted_docs(), (std::vector<DocId>{1}));
}

TEST_F(CheckpointTest, CompactionTotalsSurviveRecovery) {
  IndexOptions options = SmallOptions();
  options.policy = Policy::NewZ(AllocStrategy::kProportional, 2);
  std::unique_ptr<BatchLog> log = OpenLog();
  InvertedIndex index(options);
  for (const auto& batch : MakeBatches(8, 31)) {
    ASSERT_TRUE(log->ApplyLogged(&index, batch).ok());
  }
  Result<CompactionStats> round = index.CompactOnce();
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_GT(index.compaction_totals().lists_examined, 0u);

  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, log.get()).ok());

  InvertedIndex recovered(options);
  std::unique_ptr<BatchLog> reopened = OpenLog();
  ASSERT_TRUE(checkpointer.Recover(&recovered, reopened.get()).ok());
  EXPECT_EQ(recovered.compaction_totals().lists_examined,
            index.compaction_totals().lists_examined);
  EXPECT_EQ(recovered.compaction_totals().lists_compacted,
            index.compaction_totals().lists_compacted);
}

TEST_F(CheckpointTest, UnappliedBatchBlocksCheckpoint) {
  std::unique_ptr<BatchLog> log = OpenLog();
  InvertedIndex index(SmallOptions());
  text::InvertedBatch batch;
  batch.entries.push_back({WordId{1}, {DocId{0}}});
  ASSERT_TRUE(log->AppendBatch(batch).ok());  // durable but never applied

  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
  EXPECT_TRUE(info.status().IsFailedPrecondition()) << info.status();
}

TEST_F(CheckpointTest, NoCheckpointEmptyLogIsEmpty) {
  Checkpointer checkpointer = MakeCheckpointer();
  InvertedIndex recovered(SmallOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, log.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->mode, RecoveryMode::kEmpty);
}

TEST_F(CheckpointTest, NoCheckpointFullHistoryRebuilds) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 41);
  std::unique_ptr<BatchLog> log = OpenLog();
  InvertedIndex index(SmallOptions());
  InvertedIndex reference(SmallOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(log->ApplyLogged(&index, batch).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batch).ok());
  }

  Checkpointer checkpointer = MakeCheckpointer();
  InvertedIndex recovered(SmallOptions());
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
  InvertedIndex index(SmallOptions());
  InvertedIndex reference(SmallOptions());
  // Keep full history in the WAL so the older checkpoint's longer tail is
  // still replayable after the newest image rots.
  Checkpointer checkpointer = MakeCheckpointer(/*truncate_wal=*/false);
  std::string newest_path;
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(log->ApplyLogged(&index, batches[b]).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 2 || b == 4) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok()) << info.status();
      newest_path = info->payload_path;
    }
  }
  CorruptFile(newest_path);

  InvertedIndex recovered(SmallOptions());
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
  InvertedIndex index(SmallOptions());
  InvertedIndex reference(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer(/*truncate_wal=*/false);
  std::vector<std::string> images;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(log->ApplyLogged(&index, batches[b]).ok());
    ASSERT_TRUE(reference.ApplyInvertedBatch(batches[b]).ok());
    if (b == 1 || b == 2) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok());
      images.push_back(info->payload_path);
    }
  }
  for (const std::string& image : images) CorruptFile(image);

  InvertedIndex recovered(SmallOptions());
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
  InvertedIndex index(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer();  // truncates the WAL
  std::string image;
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(log->ApplyLogged(&index, batches[b]).ok());
    if (b == 2) {
      Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
      ASSERT_TRUE(info.ok());
      image = info->payload_path;
    }
  }
  CorruptFile(image);

  // The only checkpoint is damaged AND the WAL prefix it covered is gone:
  // recovery must fail typed, never hand back a partial index.
  InvertedIndex recovered(SmallOptions());
  std::unique_ptr<BatchLog> reopened = OpenLog();
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, reopened.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

// Rejecting every installed checkpoint with no WAL history to rebuild
// from must fail typed: the install proves the index held documents, so
// an empty index would silently lose all of them.
TEST_F(CheckpointTest, DamagedImageWithoutWalHistoryIsTypedCorruption) {
  InvertedIndex index(SmallOptions());
  ASSERT_TRUE(index.ApplyInvertedBatch(MakeBatches(1, 73).front()).ok());
  Checkpointer checkpointer = MakeCheckpointer();
  Result<CheckpointInfo> info = checkpointer.Checkpoint(index, nullptr);
  ASSERT_TRUE(info.ok()) << info.status();
  CorruptFile(info->payload_path);

  InvertedIndex without_log(SmallOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&without_log, nullptr);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();

  InvertedIndex with_empty_log(SmallOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  rec = checkpointer.Recover(&with_empty_log, log.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
}

TEST_F(CheckpointTest, GeometryMismatchIsFailedPrecondition) {
  InvertedIndex index(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(index, nullptr).ok());

  IndexOptions other = SmallOptions();
  other.buckets.num_buckets = 32;  // different geometry
  InvertedIndex recovered(other);
  Result<RecoveryInfo> rec = checkpointer.Recover(&recovered, nullptr);
  EXPECT_TRUE(rec.status().IsFailedPrecondition()) << rec.status();
}

TEST_F(CheckpointTest, StaleCheckpointFilesAreRemoved) {
  std::unique_ptr<BatchLog> log = OpenLog();
  InvertedIndex index(SmallOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  std::vector<std::string> images;
  const std::vector<text::InvertedBatch> batches = MakeBatches(4, 61);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(log->ApplyLogged(&index, batches[round]).ok());
    Result<CheckpointInfo> info = checkpointer.Checkpoint(index, log.get());
    ASSERT_TRUE(info.ok());
    images.push_back(info->payload_path);
  }
  // Both superblock slots stay referenced (fallback), everything older is
  // garbage-collected.
  EXPECT_FALSE(fs::exists(images[0]));
  EXPECT_FALSE(fs::exists(images[1]));
  EXPECT_TRUE(fs::exists(images[2]));
  EXPECT_TRUE(fs::exists(images[3]));
}

// --- Sharded index ---------------------------------------------------------

ShardedIndexOptions ShardedOptions(uint32_t shards = 3) {
  ShardedIndexOptions options;
  options.shard = SmallOptions();
  options.num_shards = shards;
  return options;
}

TEST_F(CheckpointTest, ShardedRoundTripThroughManifest) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 67);
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  ShardedIndex reference(ShardedOptions());
  Checkpointer checkpointer = MakeCheckpointer();
  for (int b = 0; b < 6; ++b) {
    Result<uint64_t> id = log->AppendBatch(batches[b]);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(index.ApplyInvertedBatch(batches[b]).ok());
    ASSERT_TRUE(log->MarkApplied(*id).ok());
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
    if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
  }
}

TEST_F(CheckpointTest, ShardedDocumentPathSurvives) {
  std::unique_ptr<BatchLog> log = OpenLog();
  ShardedIndex index(ShardedOptions());
  index.AddDocument("alpha beta gamma");
  index.AddDocument("beta delta epsilon");
  ASSERT_TRUE(index.FlushDocumentsLogged(log.get()).ok());
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
    Result<uint64_t> id = log->AppendBatch(batches[b]);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(index.ApplyInvertedBatch(batches[b]).ok());
    ASSERT_TRUE(log->MarkApplied(*id).ok());
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
    if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
  }
}

// An unsharded image under the superblock is an intact install that the
// sharded overload rejects (the payload is not a manifest). With no WAL
// history that is typed Corruption, never an empty index served as OK.
TEST_F(CheckpointTest, ShardedRejectedInstallWithoutWalIsTypedCorruption) {
  InvertedIndex unsharded(SmallOptions());
  ASSERT_TRUE(unsharded.ApplyInvertedBatch(MakeBatches(1, 79).front()).ok());
  Checkpointer checkpointer = MakeCheckpointer();
  ASSERT_TRUE(checkpointer.Checkpoint(unsharded, nullptr).ok());

  ShardedIndex without_log(ShardedOptions());
  Result<RecoveryInfo> rec = checkpointer.Recover(&without_log, nullptr);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();

  ShardedIndex with_empty_log(ShardedOptions());
  std::unique_ptr<BatchLog> log = OpenLog();
  rec = checkpointer.Recover(&with_empty_log, log.get());
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status();
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
    Result<uint64_t> id = log->AppendBatch(batch);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(index.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(log->MarkApplied(*id).ok());
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
    if (expect.ok()) EXPECT_EQ(*expect, *got) << "word " << w;
  }
}

}  // namespace
}  // namespace duplex::core
