// Crash sweep of the delta drain: arm a fault schedule on the index
// devices, crash at EVERY physical op of the drain round that moves the
// live delta to disk, and prove at each crash point that (a) the drain
// error latches sticky and the sealed tier keeps every acked document,
// (b) queries either answer correctly or fail typed — an acked document
// never silently vanishes, and (c) the PR 8 recovery ladder (checkpoint
// superblock walk degrading to full WAL rebuild) reconstructs an index
// bit-identical to the uncrashed reference. A second test drives the
// unacked arm: a submit whose WAL sync fails is never half-visible — it
// is absent before recovery and appears atomically (all words or none)
// after replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/live_index.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "storage/fault_injection.h"

namespace duplex::core {
namespace {

ShardedIndexOptions BaseOptions(
    std::shared_ptr<storage::FaultSchedule> schedule = nullptr) {
  IndexOptions shard;
  shard.buckets.num_buckets = 16;
  // Small buckets: the shared words below overflow them, so the drain
  // promotes long lists and actually touches the device — lists that fit
  // a bucket never issue I/O and would leave the sweep with zero ops.
  shard.buckets.bucket_capacity = 16;
  shard.policy = Policy::WholeZ();
  shard.block_postings = 16;
  shard.disks.num_disks = 2;
  shard.disks.blocks_per_disk = 1 << 16;
  shard.disks.block_size_bytes = 128;
  shard.disks.checksums = true;
  shard.materialize = true;
  shard.disks.fault_schedule = std::move(schedule);
  ShardedIndexOptions options;
  options.shard = shard;
  // One shard: a single op counter numbers every device op in the drain,
  // so the sweep hits each boundary deterministically.
  options.num_shards = 1;
  return options;
}

std::vector<std::string> BaseDocs() {
  std::vector<std::string> docs;
  for (int i = 0; i < 12; ++i) {
    docs.push_back("base doc " + std::to_string(i) + " anchor common word" +
                   std::to_string(i % 5));
  }
  return docs;
}

// 40 docs sharing "fresh anchor common": with bucket_capacity=16 those
// lists exceed a bucket and the drain writes real device blocks.
std::vector<std::string> LiveDocs() {
  std::vector<std::string> docs;
  for (int i = 0; i < 40; ++i) {
    docs.push_back("live doc " + std::to_string(i) +
                   " fresh anchor common word" + std::to_string(i % 7));
  }
  return docs;
}

// Runs the full ingest sequence (base batch, then each live doc as its
// own submit) against `live`; returns false on the first failure.
void Ingest(LiveIndex* live) {
  ASSERT_TRUE(live->SubmitBatch(BaseDocs()).ok());
  for (const std::string& doc : LiveDocs()) {
    ASSERT_TRUE(live->SubmitLive({doc}).ok());
  }
}

void ExpectSamePostings(const ShardedIndex& expect,
                        const ShardedIndex& got,
                        const std::string& label) {
  std::vector<WordId> words;
  expect.ForEachWord([&](WordId w) { words.push_back(w); });
  std::vector<WordId> got_words;
  got.ForEachWord([&](WordId w) { got_words.push_back(w); });
  std::sort(words.begin(), words.end());
  std::sort(got_words.begin(), got_words.end());
  ASSERT_EQ(words, got_words) << label;
  for (const WordId w : words) {
    const Result<std::vector<DocId>> e = expect.GetPostings(w);
    const Result<std::vector<DocId>> g = got.GetPostings(w);
    ASSERT_TRUE(e.ok()) << label << " word " << w;
    ASSERT_TRUE(g.ok()) << label << " word " << w;
    EXPECT_EQ(*e, *g) << label << " word " << w;
  }
  EXPECT_EQ(expect.Stats().total_postings, got.Stats().total_postings)
      << label;
  EXPECT_EQ(expect.next_doc_id(), got.next_doc_id()) << label;
}

TEST(DeltaCrashSweep, EveryDrainOpCrashIsStickyAndRecoverable) {
  const std::string wal_path =
      ::testing::TempDir() + "/duplex_delta_sweep.wal";
  const std::string ckpt_prefix =
      ::testing::TempDir() + "/duplex_delta_sweep_ckpt";

  // Uncrashed reference: same submits, drained cleanly.
  auto reference = std::make_unique<ShardedIndex>(BaseOptions());
  {
    std::remove(wal_path.c_str());
    Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    (*wal)->set_fsync(false);
    LiveIndex live(reference.get(), wal->get());
    Ingest(&live);
    ASSERT_TRUE(live.DrainAll().ok());
  }

  // Counting run: number the device ops of the drain round.
  uint64_t ops_before = 0;
  uint64_t n_ops = 0;
  {
    std::remove(wal_path.c_str());
    auto schedule = std::make_shared<storage::FaultSchedule>(
        storage::FaultScheduleOptions{});
    ShardedIndex index(BaseOptions(schedule));
    Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    (*wal)->set_fsync(false);
    LiveIndex live(&index, wal->get());
    Ingest(&live);
    ops_before = schedule->ops_issued();
    ASSERT_TRUE(live.DrainOnce().ok());
    n_ops = schedule->ops_issued() - ops_before;
  }
  ASSERT_GT(n_ops, 0u) << "the drain round issued no device I/O";

  const size_t live_docs = LiveDocs().size();
  for (uint64_t k = 1; k <= n_ops; ++k) {
    SCOPED_TRACE("crash at drain op " + std::to_string(k) + " of " +
                 std::to_string(n_ops));
    std::remove(wal_path.c_str());
    storage::FaultScheduleOptions fault;
    fault.crash_at_op = ops_before + k;
    auto schedule = std::make_shared<storage::FaultSchedule>(fault);
    ShardedIndex index(BaseOptions(schedule));
    Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    (*wal)->set_fsync(false);
    LiveIndex live(&index, wal->get());
    Ingest(&live);

    const Status crashed = live.DrainOnce();
    ASSERT_FALSE(crashed.ok()) << "crash point never fired";
    EXPECT_TRUE(crashed.IsIoError()) << crashed;

    // Sticky: the next round reports the same latched failure instead of
    // re-applying the half-written batch.
    const Status again = live.DrainOnce();
    ASSERT_FALSE(again.ok());
    LiveIndex::DeltaStatus status = live.GetDeltaStatus();
    EXPECT_FALSE(status.drain_status.ok());

    // Every acked document is still pinned in the sealed tier.
    EXPECT_EQ(status.draining_docs, live_docs);

    // Queries over the merged view either answer exactly or fail typed
    // (reads may hit the crashed device) — never a silent miss. "fresh"
    // appears in every live doc and no base doc.
    {
      LiveIndex::ReadView view = live.AcquireView();
      ir::QueryExecutor exec(view.reader());
      Result<ir::QueryResult> result = exec.EvaluateBoolean("fresh");
      if (result.ok()) {
        std::vector<DocId> expect_live;
        for (size_t i = 0; i < live_docs; ++i) {
          expect_live.push_back(static_cast<DocId>(12 + i));
        }
        EXPECT_EQ(result->docs, expect_live);
      }
      // A failed query is acceptable here (reads may hit the crashed
      // device and surface a typed I/O or checksum error); a silent
      // wrong answer is not, and the branch above catches that.
    }

    // The acked-but-undrained batches are exactly the unapplied WAL tail.
    EXPECT_EQ(live.GetWalStatus().unapplied, live_docs);

    // Recovery ladder: no checkpoint was ever installed, so Recover
    // degrades to the full WAL rebuild — typed, never partial.
    ShardedIndex recovered(BaseOptions());
    Result<std::unique_ptr<BatchLog>> replay = BatchLog::Open(wal_path);
    ASSERT_TRUE(replay.ok());
    (*replay)->set_fsync(false);
    Checkpointer checkpointer(CheckpointOptions{.prefix = ckpt_prefix});
    Result<RecoveryInfo> info =
        checkpointer.Recover(&recovered, replay->get());
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->mode, RecoveryMode::kFullRebuild);
    ASSERT_TRUE(recovered.VerifyIntegrity().ok());
    ExpectSamePostings(*reference, recovered,
                       "recovered at op " + std::to_string(k));
  }

  std::remove(wal_path.c_str());
  std::remove((ckpt_prefix + ".super").c_str());
}

TEST(DeltaCrashSweep, UnackedSubmitIsNeverHalfVisible) {
  const std::string wal_path =
      ::testing::TempDir() + "/duplex_delta_unacked.wal";
  std::remove(wal_path.c_str());
  Result<std::unique_ptr<BatchLog>> wal = BatchLog::Open(wal_path);
  ASSERT_TRUE(wal.ok());

  ShardedIndex index(BaseOptions());
  LiveIndex live(&index, wal->get());
  ASSERT_TRUE(live.SubmitLive({"stable resident document"}).ok());

  // The durability sync of the next append fails after the bytes reach
  // the kernel: the classic ambiguous outcome. The submit must surface
  // the error and the document must NOT be visible — no ack, no doc.
  (*wal)->set_fail_next_syncs(1);
  Result<LiveIndex::SubmitReceipt> failed =
      live.SubmitLive({"phantom unacked document"});
  ASSERT_FALSE(failed.ok());
  {
    LiveIndex::ReadView view = live.AcquireView();
    ir::QueryExecutor exec(view.reader());
    Result<ir::QueryResult> result = exec.EvaluateBoolean("phantom");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->docs.empty()) << "unacked doc leaked into a query";
    Result<ir::QueryResult> stable = exec.EvaluateBoolean("stable");
    ASSERT_TRUE(stable.ok());
    EXPECT_EQ(stable->docs, std::vector<DocId>{0});
  }
  // Its doc id is burned: the next accepted submit skips over it.
  Result<LiveIndex::SubmitReceipt> next =
      live.SubmitLive({"followup resident document"});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->first_doc, 2u);

  // Restart: the record reached the kernel, so the reopened log surfaces
  // it as an unapplied batch and replay materializes the document
  // atomically — every one of its words answers, or (had the bytes been
  // lost) none would. Half-appearance is the one forbidden outcome.
  wal->reset();
  Result<std::unique_ptr<BatchLog>> reopened = BatchLog::Open(wal_path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->batches_logged(), 3u);
  ShardedIndex recovered(BaseOptions());
  std::vector<BatchLog::LoggedBatch> logged;
  ASSERT_TRUE((*reopened)
                  ->ForEachBatch(0,
                                 [&](const BatchLog::LoggedBatch& batch) {
                                   logged.push_back(batch);
                                   return recovered.ApplyInvertedBatch(
                                       batch.docs);
                                 })
                  .ok());
  ASSERT_EQ(logged.size(), 3u);
  // The phantom batch is log record 1; after replay, EVERY word of that
  // document must hold its posting — atomic appearance, no torn subset.
  const BatchLog::LoggedBatch& phantom = logged[1];
  ASSERT_FALSE(phantom.docs.entries.empty());
  for (const auto& entry : phantom.docs.entries) {
    Result<std::vector<DocId>> postings = recovered.GetPostings(entry.word);
    ASSERT_TRUE(postings.ok()) << "word " << entry.word;
    EXPECT_TRUE(std::binary_search(postings->begin(), postings->end(),
                                   DocId{1}))
        << "word " << entry.word
        << " lost its posting for the replayed doc";
  }

  reopened->reset();
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace duplex::core
