// Unit coverage for the immediate-visibility ingest tier: a live submit
// is queryable the moment its ack returns (before any drain), draining
// moves the postings to disk without changing a single query answer, the
// delta cap surfaces as the typed BUSY status, and the WAL accounting
// lines up batch-for-batch with the drain rounds.
#include "core/live_index.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"

namespace duplex::core {
namespace {

ShardedIndexOptions SmallOptions(uint32_t shards = 2) {
  IndexOptions o;
  o.buckets.num_buckets = 16;
  o.buckets.bucket_capacity = 64;
  o.policy = Policy::NewZ();
  o.block_postings = 16;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 16;
  o.disks.block_size_bytes = 128;
  o.materialize = true;
  ShardedIndexOptions options;
  options.shard = o;
  options.num_shards = shards;
  return options;
}

std::vector<DocId> BooleanDocs(const LiveIndex& live,
                               const std::string& query) {
  LiveIndex::ReadView view = live.AcquireView();
  ir::QueryExecutor exec(view.reader());
  Result<ir::QueryResult> result = exec.EvaluateBoolean(query);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->docs : std::vector<DocId>{};
}

class LiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file: ctest runs each case as its own process, and two
    // cases sharing one WAL path can race when run in parallel.
    wal_path_ = ::testing::TempDir() + "/duplex_live_index_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".wal";
    std::remove(wal_path_.c_str());
    Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    wal_ = std::move(*wal);
    wal_->set_fsync(false);
  }

  void TearDown() override {
    wal_.reset();
    std::remove(wal_path_.c_str());
  }

  std::string wal_path_;
  std::unique_ptr<BatchLog> wal_;
};

TEST_F(LiveIndexTest, SubmitLiveIsVisibleBeforeAnyDrain) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  ASSERT_TRUE(
      live.SubmitBatch({"the quick brown fox", "a lazy dog sleeps"}).ok());
  Result<LiveIndex::SubmitReceipt> receipt =
      live.SubmitLive({"the fox meets the dog"});
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->accepted, 1u);
  EXPECT_EQ(receipt->first_doc, 2u);
  EXPECT_NE(receipt->wal_batch_id, 0u);
  EXPECT_EQ(receipt->delta_docs, 1u);

  // No drain has run: the document lives only in the delta tier, yet the
  // merged view answers with it — for a term it shares with disk docs and
  // for a term only it contains.
  EXPECT_EQ(BooleanDocs(live, "fox"), (std::vector<DocId>{0, 2}));
  EXPECT_EQ(BooleanDocs(live, "fox AND dog"), (std::vector<DocId>{2}));
  EXPECT_EQ(BooleanDocs(live, "meets"), (std::vector<DocId>{2}));

  LiveIndex::DeltaStatus status = live.GetDeltaStatus();
  EXPECT_EQ(status.active_docs, 1u);
  EXPECT_EQ(status.draining_docs, 0u);
  EXPECT_EQ(status.drain_rounds, 0u);
  EXPECT_TRUE(status.drain_status.ok());
}

TEST_F(LiveIndexTest, DrainMovesPostingsWithoutChangingAnswers) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  ASSERT_TRUE(live.SubmitBatch({"alpha beta", "beta gamma"}).ok());
  ASSERT_TRUE(live.SubmitLive({"alpha gamma delta"}).ok());
  ASSERT_TRUE(live.SubmitLive({"delta epsilon"}).ok());

  const std::vector<DocId> before_alpha = BooleanDocs(live, "alpha");
  const std::vector<DocId> before_delta = BooleanDocs(live, "delta");
  const std::vector<DocId> before_and = BooleanDocs(live, "gamma AND delta");

  ASSERT_TRUE(live.DrainAll().ok());
  LiveIndex::DeltaStatus status = live.GetDeltaStatus();
  EXPECT_EQ(status.active_docs, 0u);
  EXPECT_EQ(status.draining_docs, 0u);
  EXPECT_GE(status.drain_rounds, 1u);

  // Same answers, now served from disk — including through the plain
  // index reader with no delta overlay at all.
  EXPECT_EQ(BooleanDocs(live, "alpha"), before_alpha);
  EXPECT_EQ(BooleanDocs(live, "delta"), before_delta);
  EXPECT_EQ(BooleanDocs(live, "gamma AND delta"), before_and);
  ir::QueryExecutor disk_exec(index);
  Result<ir::QueryResult> disk = disk_exec.EvaluateBoolean("delta");
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk->docs, before_delta);
  EXPECT_TRUE(index.VerifyIntegrity().ok());
}

TEST_F(LiveIndexTest, DeltaCapRejectsWithTypedBusy) {
  ShardedIndex index(SmallOptions());
  LiveIndex::Options options;
  options.delta_cap_docs = 2;
  LiveIndex live(&index, wal_.get(), options);

  ASSERT_TRUE(live.SubmitLive({"one fish"}).ok());
  ASSERT_TRUE(live.SubmitLive({"two fish"}).ok());
  Result<LiveIndex::SubmitReceipt> rejected =
      live.SubmitLive({"red fish"});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted()) << rejected.status();
  EXPECT_EQ(live.GetDeltaStatus().busy_rejections, 1u);

  // Draining frees capacity; the retry succeeds and the rejected submit
  // never half-landed (doc ids are contiguous).
  ASSERT_TRUE(live.DrainAll().ok());
  Result<LiveIndex::SubmitReceipt> retried = live.SubmitLive({"red fish"});
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->first_doc, 2u);
  EXPECT_EQ(BooleanDocs(live, "fish"), (std::vector<DocId>{0, 1, 2}));
}

TEST_F(LiveIndexTest, DeletionsFilterBothSidesOfTheDrain) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  ASSERT_TRUE(live.SubmitBatch({"shared words on disk"}).ok());
  Result<LiveIndex::SubmitReceipt> receipt =
      live.SubmitLive({"shared words in delta"});
  ASSERT_TRUE(receipt.ok());
  const DocId live_doc = receipt->first_doc;

  live.DeleteDocument(live_doc);
  EXPECT_EQ(BooleanDocs(live, "shared"), (std::vector<DocId>{0}));
  EXPECT_EQ(BooleanDocs(live, "delta"), std::vector<DocId>{});

  // The tombstone survives the drain: the postings move to disk where the
  // sharded index's own deletion filter takes over.
  ASSERT_TRUE(live.DrainAll().ok());
  EXPECT_EQ(BooleanDocs(live, "shared"), (std::vector<DocId>{0}));
  EXPECT_EQ(BooleanDocs(live, "delta"), std::vector<DocId>{});
}

TEST_F(LiveIndexTest, EpochAdvancesAcrossDrains) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  Result<LiveIndex::SubmitReceipt> first = live.SubmitLive({"epoch one"});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->epoch, 1u);
  ASSERT_TRUE(live.DrainAll().ok());
  Result<LiveIndex::SubmitReceipt> second = live.SubmitLive({"epoch two"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(live.GetDeltaStatus().epoch, 2u);
}

TEST_F(LiveIndexTest, ZeroTokenDocumentsStillCommitTheirWalBatch) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  // A document with no indexable tokens produces an empty inverted batch
  // but still consumes a doc id and owes the WAL its commit record. As
  // the very first batch it gets WAL id 0 — a valid id, not a sentinel.
  Result<LiveIndex::SubmitReceipt> receipt = live.SubmitLive({"...!!..."});
  ASSERT_TRUE(receipt.ok()) << receipt.status();
  EXPECT_EQ(receipt->accepted, 1u);
  EXPECT_EQ(receipt->wal_batch_id, 0u);
  EXPECT_EQ(live.GetWalStatus().unapplied, 1u);

  ASSERT_TRUE(live.DrainAll().ok());
  EXPECT_EQ(live.GetWalStatus().unapplied, 0u);
  EXPECT_EQ(index.next_doc_id(), 1u);

  // The next document gets the next id — the empty batch burned its slot.
  Result<LiveIndex::SubmitReceipt> next = live.SubmitLive({"real words"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->first_doc, 1u);
}

TEST_F(LiveIndexTest, WalAccountingMatchesDrainRounds) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        live.SubmitLive({"batch number " + std::to_string(i)}).ok());
  }
  LiveIndex::WalStatus wal_status = live.GetWalStatus();
  EXPECT_TRUE(wal_status.attached);
  EXPECT_EQ(wal_status.tail_batches, 5u);
  EXPECT_EQ(wal_status.unapplied, 5u);

  // One drain round seals all five batches into one epoch and commits
  // each of their WAL records.
  ASSERT_TRUE(live.DrainOnce().ok());
  wal_status = live.GetWalStatus();
  EXPECT_EQ(wal_status.unapplied, 0u);
  EXPECT_EQ(live.GetDeltaStatus().drain_rounds, 1u);
}

TEST_F(LiveIndexTest, AckedDocumentsSurviveRestartViaWalReplay) {
  const auto options = SmallOptions();
  std::vector<DocId> expect_fox;
  WordId fox_word = kInvalidWord;
  {
    ShardedIndex index(options);
    LiveIndex live(&index, wal_.get());
    ASSERT_TRUE(live.SubmitBatch({"fox on disk"}).ok());
    ASSERT_TRUE(live.SubmitLive({"fox in delta, acked, undrained"}).ok());
    expect_fox = BooleanDocs(live, "fox");
    ASSERT_EQ(expect_fox.size(), 2u);
    fox_word = index.vocabulary().Lookup("fox");
    ASSERT_NE(fox_word, kInvalidWord);
    // Process dies here: the delta tier evaporates, the WAL survives.
  }
  ShardedIndex recovered(options);
  Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(recovered.ReplayLogged(wal->get(), 0).ok());
  Result<std::vector<DocId>> postings = recovered.GetPostings(fox_word);
  ASSERT_TRUE(postings.ok()) << postings.status();
  EXPECT_EQ(*postings, expect_fox);
  EXPECT_EQ(recovered.next_doc_id(), 2u);
  // The batch records carry their word strings, so the rebuilt index
  // answers by STRING too — "fox" maps back to the same id and a boolean
  // query over the recovered index sees both documents.
  EXPECT_EQ(recovered.vocabulary().Lookup("fox"), fox_word);
  ir::QueryExecutor exec(recovered);
  Result<ir::QueryResult> by_string = exec.EvaluateBoolean("fox");
  ASSERT_TRUE(by_string.ok()) << by_string.status();
  EXPECT_EQ(by_string->docs, expect_fox);
}

TEST_F(LiveIndexTest, CheckpointQuiescesAndCoversTheDelta) {
  const std::string prefix = ::testing::TempDir() + "/duplex_live_ckpt";
  const auto options = SmallOptions();
  std::vector<DocId> expect;
  {
    ShardedIndex index(options);
    LiveIndex live(&index, wal_.get());
    ASSERT_TRUE(live.SubmitBatch({"checkpoint base"}).ok());
    ASSERT_TRUE(live.SubmitLive({"checkpoint live doc"}).ok());
    expect = BooleanDocs(live, "checkpoint");

    // The delta is undrained; CheckpointNow must drain it first (the
    // Checkpointer refuses unapplied WAL batches).
    Checkpointer checkpointer(CheckpointOptions{.prefix = prefix});
    Result<CheckpointInfo> info = live.CheckpointNow(&checkpointer);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_TRUE(live.GetDeltaStatus().active_docs == 0);
  }
  ShardedIndex recovered(options);
  Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path_);
  ASSERT_TRUE(wal.ok());
  Checkpointer checkpointer(CheckpointOptions{.prefix = prefix});
  Result<RecoveryInfo> recovery = checkpointer.Recover(&recovered, wal->get());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ir::QueryExecutor exec(recovered);
  Result<ir::QueryResult> result = exec.EvaluateBoolean("checkpoint");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->docs, expect);
}

TEST_F(LiveIndexTest, BackgroundDrainerEmptiesTheDelta) {
  ShardedIndex index(SmallOptions());
  LiveIndex::Options options;
  options.drain_interval = std::chrono::milliseconds(1);
  LiveIndex live(&index, wal_.get(), options);

  live.StartDrainer();
  EXPECT_TRUE(live.drainer_running());
  ASSERT_TRUE(live.SubmitLive({"drained in the background"}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live.GetDeltaStatus().active_docs > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  live.StopDrainer();
  EXPECT_FALSE(live.drainer_running());
  EXPECT_EQ(live.GetDeltaStatus().active_docs, 0u);
  EXPECT_EQ(live.GetWalStatus().unapplied, 0u);
  EXPECT_EQ(BooleanDocs(live, "background"), (std::vector<DocId>{0}));
}

TEST_F(LiveIndexTest, LiveSubmitRefusedWhileDocumentsAreBuffered) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, wal_.get());

  // AddDocument already promised the staged document the next doc id, so
  // a live batch before the flush is a typed refusal, not a silent
  // reordering.
  index.AddDocument("buffered but unflushed");
  Result<LiveIndex::SubmitReceipt> receipt = live.SubmitLive({"live doc"});
  ASSERT_FALSE(receipt.ok());
  EXPECT_TRUE(receipt.status().IsFailedPrecondition()) << receipt.status();
  ASSERT_TRUE(index.FlushDocuments(wal_.get()).ok());
  EXPECT_TRUE(live.SubmitLive({"live doc"}).ok());
}

TEST_F(LiveIndexTest, WorksWithoutAWal) {
  ShardedIndex index(SmallOptions());
  LiveIndex live(&index, /*wal=*/nullptr);

  Result<LiveIndex::SubmitReceipt> receipt = live.SubmitLive({"no wal"});
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->wal_batch_id, 0u);
  EXPECT_EQ(BooleanDocs(live, "wal"), (std::vector<DocId>{0}));
  ASSERT_TRUE(live.DrainAll().ok());
  EXPECT_EQ(BooleanDocs(live, "wal"), (std::vector<DocId>{0}));
  EXPECT_FALSE(live.GetWalStatus().attached);
}

}  // namespace
}  // namespace duplex::core
