// Extension: fast restart with checkpoints. Builds the same WAL history
// at several lengths and times a cold restart two ways: full WAL replay
// (no checkpoint — every batch since day one) vs checkpoint + tail
// (restore the newest durable image, replay only the batches after its
// epoch). The paper's restartability story stops at "replay the log";
// this measures what that costs as history accumulates. The WAL-dependent
// part of a checkpointed restart is the tail replay, which stays flat at
// the checkpoint interval no matter how long the history grows, while the
// replay-only restart re-runs every batch ever applied. (The image-load
// part tracks live index size — unavoidable for any snapshot scheme — so
// the speedup over full replay keeps widening with history.) Output:
// ASCII table + BENCH_recovery.json.
//
// Scale knobs: DUPLEX_BENCH_RECOVERY_MAX (longest history, default 48
// batches), DUPLEX_BENCH_RECOVERY_DOCS (docs per batch, default 240).
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/sharded_index.h"
#include "text/batch.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"

namespace {

namespace fs = std::filesystem;
using namespace duplex;

constexpr int kWords = 400;
constexpr uint64_t kCheckpointEvery = 8;  // batches between checkpoints

// duplexd's shard count over this bench's geometry.
core::ShardedIndexOptions Options() {
  core::IndexOptions options;
  options.buckets.num_buckets = 256;
  options.buckets.bucket_capacity = 64;
  options.policy = core::Policy::RecommendedUpdateOptimized();
  options.block_postings = 32;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 18;
  options.disks.block_size_bytes = 512;
  options.disks.checksums = true;
  options.materialize = true;
  return core::ShardedIndexOptions::Partition(options, core::kServingShards);
}

// Bytes of one installed checkpoint: its manifest plus every shard image.
uint64_t CheckpointBytes(const core::CheckpointInfo& info) {
  uint64_t bytes = info.payload_bytes;
  for (uint32_t k = 0; k < core::kServingShards; ++k) {
    bytes += fs::file_size(info.payload_path + "-shard" + std::to_string(k));
  }
  return bytes;
}

std::vector<text::InvertedBatch> MakeBatches(uint64_t count,
                                             uint64_t docs_per_batch) {
  std::vector<text::InvertedBatch> batches;
  Rng rng(1994);
  DocId next_doc = 0;
  for (uint64_t b = 0; b < count; ++b) {
    std::vector<std::vector<DocId>> lists(kWords);
    for (uint64_t d = 0; d < docs_per_batch; ++d) {
      const DocId doc = next_doc++;
      // Zipf-flavored membership: low word ids appear in almost every
      // document, the tail rarely — the paper's short/long split.
      for (int w = 0; w < kWords; ++w) {
        if (rng.Uniform(1 + static_cast<uint64_t>(w) / 8) == 0) {
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

struct RestartPoint {
  uint64_t history = 0;           // total batches in the WAL's lifetime
  double wal_only_ms = 0.0;       // full replay restart
  double checkpointed_ms = 0.0;   // restore + tail replay restart
  uint64_t tail_batches = 0;      // batches replayed on the fast path
  uint64_t checkpoint_bytes = 0;  // installed manifest + shard images
};

// Builds an N-batch logged history under `dir` and times both restarts.
RestartPoint MeasureRestart(const std::string& dir,
                            const std::vector<text::InvertedBatch>& batches,
                            uint64_t history, bool with_checkpoints) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string wal_path = dir + "/idx.wal";
  const std::string prefix = dir + "/idx";

  RestartPoint point;
  point.history = history;
  {
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path);
    if (!log.ok()) {
      std::cerr << "[bench] WAL open failed: " << log.status() << "\n";
      std::exit(1);
    }
    (*log)->set_fsync(false);
    core::ShardedIndex index(Options());
    core::CheckpointOptions ckpt_options;
    ckpt_options.prefix = prefix;
    core::Checkpointer checkpointer(ckpt_options);
    for (uint64_t b = 0; b < history; ++b) {
      if (Result<uint64_t> id = index.ApplyLogged(log->get(), batches[b], {});
          !id.ok()) {
        std::cerr << "[bench] apply failed: " << id.status() << "\n";
        std::exit(1);
      }
      // Off-phase cadence (batches 4, 12, 20, ...) so every measured
      // history ends mid-interval with the same half-interval tail —
      // the steady-state restart, not the checkpoint-just-finished one.
      if (with_checkpoints &&
          (b + 1) % kCheckpointEvery == kCheckpointEvery / 2) {
        Result<core::CheckpointInfo> info =
            checkpointer.Checkpoint(index, log->get());
        if (!info.ok()) {
          std::cerr << "[bench] checkpoint failed: " << info.status() << "\n";
          std::exit(1);
        }
        point.checkpoint_bytes = CheckpointBytes(*info);
      }
    }
  }

  // Cold restart: everything in memory is gone; reopen and recover.
  Stopwatch watch;
  Result<std::unique_ptr<core::BatchLog>> log = core::BatchLog::Open(wal_path);
  if (!log.ok()) {
    std::cerr << "[bench] WAL reopen failed: " << log.status() << "\n";
    std::exit(1);
  }
  (*log)->set_fsync(false);
  core::ShardedIndex index(Options());
  core::CheckpointOptions ckpt_options;
  ckpt_options.prefix = prefix;
  core::Checkpointer checkpointer(ckpt_options);
  Result<core::RecoveryInfo> rec = checkpointer.Recover(&index, log->get());
  if (!rec.ok()) {
    std::cerr << "[bench] recovery failed: " << rec.status() << "\n";
    std::exit(1);
  }
  const double ms = watch.ElapsedSeconds() * 1000.0;
  if (with_checkpoints) {
    point.checkpointed_ms = ms;
    point.tail_batches = rec->batches_replayed;
    if (history >= kCheckpointEvery &&
        rec->mode != core::RecoveryMode::kCheckpointTail) {
      std::cerr << "[bench] expected the checkpoint fast path\n";
      std::exit(1);
    }
  } else {
    point.wal_only_ms = ms;
    if (history > 0 && rec->mode != core::RecoveryMode::kFullRebuild) {
      std::cerr << "[bench] expected a full rebuild\n";
      std::exit(1);
    }
  }
  fs::remove_all(dir, ec);
  return point;
}

}  // namespace

int main() {
  const uint64_t max_history = bench::EnvOr("DUPLEX_BENCH_RECOVERY_MAX", 48);
  const uint64_t docs_per_batch =
      bench::EnvOr("DUPLEX_BENCH_RECOVERY_DOCS", 240);
  const std::string root =
      (fs::temp_directory_path() / "duplex_bench_recovery").string();

  std::vector<uint64_t> histories;
  for (uint64_t h = kCheckpointEvery; h <= max_history; h *= 2) {
    histories.push_back(h);
  }
  if (histories.empty() || histories.back() != max_history) {
    histories.push_back(max_history);
  }

  Stopwatch gen_watch;
  const std::vector<text::InvertedBatch> batches =
      MakeBatches(max_history, docs_per_batch);
  uint64_t total_postings = 0;
  for (const auto& b : batches) {
    for (const auto& e : b.entries) total_postings += e.docs.size();
  }
  std::cerr << "[bench] generated " << batches.size() << " batches, "
            << total_postings << " postings in " << gen_watch.ElapsedSeconds()
            << "s\n";

  std::vector<RestartPoint> points;
  for (const uint64_t history : histories) {
    RestartPoint wal_only =
        MeasureRestart(root, batches, history, /*with_checkpoints=*/false);
    RestartPoint ckpt =
        MeasureRestart(root, batches, history, /*with_checkpoints=*/true);
    wal_only.checkpointed_ms = ckpt.checkpointed_ms;
    wal_only.tail_batches = ckpt.tail_batches;
    wal_only.checkpoint_bytes = ckpt.checkpoint_bytes;
    points.push_back(wal_only);
    std::cerr << "[bench] history " << history << ": replay "
              << wal_only.wal_only_ms << "ms vs checkpoint+tail "
              << wal_only.checkpointed_ms << "ms\n";
  }

  TableWriter table({"wal batches", "full replay ms", "checkpoint+tail ms",
                     "tail batches", "speedup", "image KiB"});
  for (const RestartPoint& p : points) {
    const double speedup =
        p.checkpointed_ms > 0 ? p.wal_only_ms / p.checkpointed_ms : 0.0;
    table.Row()
        .Cell(p.history)
        .Cell(p.wal_only_ms, 1)
        .Cell(p.checkpointed_ms, 1)
        .Cell(p.tail_batches)
        .Cell(speedup, 2)
        .Cell(p.checkpoint_bytes / 1024);
  }
  table.PrintAscii(std::cout,
                   "Extension: restart latency, full WAL replay vs "
                   "checkpoint + tail (checkpoint every " +
                       std::to_string(kCheckpointEvery) + " batches)");

  // The headline: replay-only restart re-runs the whole history; the
  // checkpointed restart replays a constant tail (bounded by the
  // checkpoint interval) regardless of history length.
  const RestartPoint& first = points.front();
  const RestartPoint& last = points.back();
  const double replay_growth =
      first.wal_only_ms > 0 ? last.wal_only_ms / first.wal_only_ms : 0.0;
  const double ckpt_growth = first.checkpointed_ms > 0
                                 ? last.checkpointed_ms / first.checkpointed_ms
                                 : 0.0;
  const double first_speedup = first.checkpointed_ms > 0
                                   ? first.wal_only_ms / first.checkpointed_ms
                                   : 0.0;
  const double last_speedup = last.checkpointed_ms > 0
                                  ? last.wal_only_ms / last.checkpointed_ms
                                  : 0.0;
  bool tail_flat = true;
  for (const RestartPoint& p : points) {
    tail_flat = tail_flat && p.tail_batches == first.tail_batches;
  }
  std::cout << "\nHistory grew " << last.history / first.history
            << "x: full replay restart grew " << replay_growth
            << "x, checkpointed restart " << ckpt_growth
            << "x (image load tracks live index size).\n";
  std::cout << "Target: WAL replay work at restart flat with checkpoints ("
            << first.tail_batches << "-batch tail at every history) "
            << (tail_flat ? "MET" : "MISSED") << "\n";
  std::cout << "Target: checkpointed restart faster at every point, speedup "
               "widening with history ("
            << first_speedup << "x -> " << last_speedup << "x) "
            << (first_speedup > 1.0 && last_speedup > first_speedup ? "MET"
                                                                    : "MISSED")
            << "\n";

  std::FILE* json = std::fopen("BENCH_recovery.json", "w");
  if (json == nullptr) {
    std::cerr << "[bench] cannot write BENCH_recovery.json\n";
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"ext_recovery\",\n");
  std::fprintf(json,
               "  \"workload\": {\"max_history\": %llu, \"docs_per_batch\": "
               "%llu, \"total_postings\": %llu},\n",
               static_cast<unsigned long long>(max_history),
               static_cast<unsigned long long>(docs_per_batch),
               static_cast<unsigned long long>(total_postings));
  std::fprintf(json, "  \"checkpoint_every\": %llu,\n",
               static_cast<unsigned long long>(kCheckpointEvery));
  std::fprintf(json, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const RestartPoint& p = points[i];
    std::fprintf(json,
                 "    {\"history\": %llu, \"full_replay_ms\": %.3f, "
                 "\"checkpoint_tail_ms\": %.3f, \"tail_batches\": %llu, "
                 "\"checkpoint_bytes\": %llu}%s\n",
                 static_cast<unsigned long long>(p.history), p.wal_only_ms,
                 p.checkpointed_ms,
                 static_cast<unsigned long long>(p.tail_batches),
                 static_cast<unsigned long long>(p.checkpoint_bytes),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"replay_growth\": %.3f,\n", replay_growth);
  std::fprintf(json, "  \"checkpointed_growth\": %.3f,\n", ckpt_growth);
  std::fprintf(json, "  \"tail_flat\": %s,\n", tail_flat ? "true" : "false");
  std::fprintf(json, "  \"speedup_first\": %.3f,\n", first_speedup);
  std::fprintf(json, "  \"speedup_last\": %.3f\n", last_speedup);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::cerr << "[bench] wrote BENCH_recovery.json\n";
  return 0;
}
