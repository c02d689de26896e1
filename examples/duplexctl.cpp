// duplexctl — command-line front end for the duplex index: build an index
// from text files, persist it as a checkpoint, and query it later.
//
//   duplexctl build <prefix> <file-or-dir>...   index documents, checkpoint
//   duplexctl query <prefix> "<boolean query>"  query a checkpoint
//   duplexctl stats <prefix>                    checkpoint statistics
//   duplexctl scrub <prefix>                    verify checksums, repair
//   duplexctl scrub-demo                        seeded corruption + scrub
//   duplexctl compact <prefix>                  defragment long lists
//   duplexctl compact-demo                      fragmentation + compaction
//   duplexctl recover-demo                      crash + fast-restart drill
//   duplexctl metrics [out-dir]                 observed workload -> Prometheus
//   duplexctl trace [out-dir]                   observed workload -> Chrome JSON
//   duplexctl net-ping <host> <port>            round-trip one ping frame
//   duplexctl net-query <host> <port> "<q>"     boolean query over TCP
//   duplexctl net-stats <host> <port>           server stats + metrics JSON
//   duplexctl net-submit <host> <port> <file>.. submit documents over TCP
//   duplexctl demo                              self-contained demo (default)
//
// The on-disk format is the one duplexd reads and writes: a checkpoint at
// <prefix> (<prefix>.super plus the <prefix>.ckpt-<seq> manifest and its
// -shard<k> images) and, when it exists, the WAL tail at <prefix>.wal.
// `build` installs a checkpoint that `duplexd --checkpoint <prefix>`
// serves; query/stats/scrub/compact recover whatever build or duplexd's
// shutdown checkpoint left there. Both binaries use one index geometry
// (core::ServingIndexOptions, 4 shards), so a checkpoint cut with another
// duplexd --shards value is refused as FailedPrecondition.
//
// Global flags (before the command): --cache-blocks <n> puts a buffer
// pool of n frames in front of the index's disks; --cache-mode
// write-through|write-back picks when dirty frames reach them;
// --fault-seed <n> seeds the deterministic fault schedule used by
// scrub-demo.
//
// Each regular file becomes one document.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/directory.h"
#include "core/inverted_index.h"
#include "core/long_list_store.h"
#include "core/scrub.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "ir/query_workload.h"
#include "net/admin_server.h"
#include "net/client.h"
#include "sim/observability.h"
#include "storage/buffer_pool.h"
#include "text/batch.h"
#include "util/random.h"

namespace {

namespace fs = std::filesystem;
using namespace duplex;

storage::BufferPoolOptions g_cache;
uint64_t g_fault_seed = 1;

// The serving geometry (shared with duplexd) plus the global cache flags.
core::IndexOptions DefaultOptions() {
  core::IndexOptions options = core::ServingIndexOptions();
  options.cache = g_cache;
  return options;
}

core::ShardedIndexOptions ServingOptions() {
  return core::ShardedIndexOptions::Partition(DefaultOptions(),
                                              core::kServingShards);
}

Result<core::CheckpointInfo> InstallCheckpoint(const core::ShardedIndex& index,
                                               core::BatchLog* wal,
                                               const std::string& prefix) {
  core::CheckpointOptions options;
  options.prefix = prefix;
  return core::Checkpointer(options).Checkpoint(index, wal);
}

int Build(const std::string& prefix,
          const std::vector<std::string>& inputs) {
  // A WAL at the prefix holds history past some earlier checkpoint; a
  // fresh index installed over it would be replayed against that history.
  if (fs::exists(prefix + ".wal")) {
    std::cerr << prefix << ".wal exists; build writes a fresh index, "
              << "pick another prefix\n";
    return 1;
  }
  std::vector<fs::path> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(input)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.emplace_back(input);
    } else {
      std::cerr << "skipping " << input << " (not a file or directory)\n";
    }
  }
  if (files.empty()) {
    std::cerr << "no input files\n";
    return 1;
  }
  std::sort(files.begin(), files.end());

  core::ShardedIndex index(ServingOptions());
  size_t indexed = 0;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot read " << file << ", skipping\n";
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const DocId doc = index.AddDocument(text.str());
    std::cout << "doc " << doc << " <- " << file.string() << "\n";
    ++indexed;
    // Batch every 64 documents, like the paper batches daily updates.
    if (index.buffered_documents() >= 64) {
      if (Status s = index.FlushDocuments(); !s.ok()) {
        std::cerr << "flush failed: " << s << "\n";
        return 1;
      }
    }
  }
  if (Status s = index.FlushDocuments(); !s.ok()) {
    std::cerr << "flush failed: " << s << "\n";
    return 1;
  }
  Result<core::CheckpointInfo> info =
      InstallCheckpoint(index, /*wal=*/nullptr, prefix);
  if (!info.ok()) {
    std::cerr << "checkpoint failed: " << info.status() << "\n";
    return 1;
  }
  const core::IndexStats stats = index.Stats();
  std::cout << "indexed " << indexed << " documents, "
            << stats.total_postings << " postings ("
            << stats.bucket_words << " bucket words, " << stats.long_words
            << " long words) -> checkpoint " << info->install_seq << " at "
            << prefix << " (" << index.num_shards() << " shards)\n";
  return 0;
}

// An index recovered from the checkpoint at a prefix, with the WAL it
// replayed (null when <prefix>.wal does not exist).
struct OpenedIndex {
  std::unique_ptr<core::ShardedIndex> index;
  std::unique_ptr<core::BatchLog> wal;
  core::RecoveryInfo recovery;
};

// Recovers the newest intact checkpoint at `prefix` plus the tail of
// <prefix>.wal. A prefix with no superblock is refused up front, because
// opening one creates it and a read must leave no file behind.
Result<OpenedIndex> OpenIndex(const std::string& prefix) {
  if (!fs::exists(prefix + ".super")) {
    return Status::NotFound("no checkpoint at " + prefix + " (" + prefix +
                            ".super does not exist)");
  }
  OpenedIndex opened;
  if (fs::exists(prefix + ".wal")) {
    Result<std::unique_ptr<core::BatchLog>> wal =
        core::BatchLog::Open(prefix + ".wal");
    if (!wal.ok()) return wal.status();
    opened.wal = std::move(*wal);
  }
  opened.index = std::make_unique<core::ShardedIndex>(ServingOptions());
  core::CheckpointOptions options;
  options.prefix = prefix;
  Result<core::RecoveryInfo> info = core::Checkpointer(options).Recover(
      opened.index.get(), opened.wal.get());
  if (!info.ok()) return info.status();
  opened.recovery = std::move(*info);
  return opened;
}

int Query(const std::string& prefix, const std::string& query) {
  Result<OpenedIndex> opened = OpenIndex(prefix);
  if (!opened.ok()) {
    std::cerr << "cannot load checkpoint: " << opened.status() << "\n";
    return 1;
  }
  Result<ir::QueryResult> result =
      ir::QueryExecutor(*opened->index).EvaluateBoolean(query);
  if (!result.ok()) {
    std::cerr << "query error: " << result.status() << "\n";
    return 1;
  }
  std::cout << result->docs.size() << " matching documents ("
            << result->read_ops << " list reads";
  if (g_cache.enabled()) {
    std::cout << ", " << result->cached_read_ops << " cache-resident";
  }
  std::cout << "):";
  for (const DocId d : result->docs) std::cout << " " << d;
  std::cout << "\n";
  return 0;
}

int Stats(const std::string& prefix) {
  Result<OpenedIndex> opened = OpenIndex(prefix);
  if (!opened.ok()) {
    std::cerr << "cannot load checkpoint: " << opened.status() << "\n";
    return 1;
  }
  const core::ShardedIndex& index = *opened->index;
  const core::RecoveryInfo& recovery = opened->recovery;
  std::cout << "checkpoint " << prefix << ": " << index.vocabulary().size()
            << " words, "
            << (index.options().shard.materialize ? "materialized"
                                                  : "count-only")
            << ", " << index.num_shards() << " shards\n"
            << "  recovered (" << core::RecoveryModeName(recovery.mode) << "): "
            << recovery.batches_replayed << " WAL batches replayed; "
            << recovery.detail << "\n";
  const core::IndexStats s = index.Stats();
  std::cout << "  postings " << s.total_postings << ", bucket words "
            << s.bucket_words << ", long words " << s.long_words
            << ", long-list utilization " << s.long_utilization << "\n";
  return 0;
}

int Scrub(const std::string& prefix) {
  Result<OpenedIndex> opened = OpenIndex(prefix);
  if (!opened.ok()) {
    std::cerr << "cannot load checkpoint: " << opened.status() << "\n";
    return 1;
  }
  core::ShardedIndex& index = *opened->index;
  // Shards own disjoint words, so the per-shard reports add up.
  core::ScrubReport total;
  for (uint32_t k = 0; k < index.num_shards(); ++k) {
    Result<core::ScrubReport> report =
        index.shard(k).WithWrite([&](core::InvertedIndex& shard) {
          return core::ScrubIndex(&shard, opened->wal.get());
        });
    if (!report.ok()) {
      std::cerr << "scrub of shard " << k << " failed: " << report.status()
                << "\n";
      return 1;
    }
    total.Merge(*report);
  }
  std::cout << total.ToString() << "\n";
  if (Status s = index.VerifyIntegrity(); !s.ok()) {
    std::cerr << "structural check failed: " << s << "\n";
    return 1;
  }
  std::cout << "structural check OK\n";
  return total.quarantined.empty() ? 0 : 1;
}

// Long-list fragmentation summary printed by `compact`/`compact-demo`.
struct FragReport {
  uint64_t long_lists = 0;
  uint64_t chunks = 0;
  uint64_t blocks = 0;
  uint64_t postings = 0;
  uint64_t block_postings = 0;

  void Add(const core::InvertedIndex& index) {
    block_postings = index.options().block_postings;
    for (const auto& [word, list] :
         index.long_list_store().directory().lists()) {
      ++long_lists;
      chunks += list.chunks.size();
      postings += list.total_postings;
      for (const core::ChunkRef& chunk : list.chunks) {
        blocks += chunk.range.length;
      }
    }
  }
  double utilization() const {
    return blocks == 0 ? 0.0
                       : static_cast<double>(postings) /
                             static_cast<double>(blocks * block_postings);
  }
};

FragReport Fragmentation(const core::InvertedIndex& index) {
  FragReport r;
  r.Add(index);
  return r;
}

FragReport Fragmentation(const core::ShardedIndex& index) {
  FragReport r;
  for (uint32_t k = 0; k < index.num_shards(); ++k) {
    index.shard(k).WithRead([&](const core::InvertedIndex& shard) {
      r.Add(shard);
    });
  }
  return r;
}

void PrintFragReport(const char* label, const FragReport& r) {
  std::cout << label << ": " << r.long_lists << " long lists, " << r.chunks
            << " chunks, " << r.blocks << " blocks, utilization "
            << r.utilization() << "\n";
}

// `duplexctl compact <prefix>`: recover the checkpoint, run compaction
// rounds until no candidate remains, and install the defragmented index
// as the next checkpoint (which also trims <prefix>.wal to its tail).
int Compact(const std::string& prefix) {
  Result<OpenedIndex> opened = OpenIndex(prefix);
  if (!opened.ok()) {
    std::cerr << "cannot load checkpoint: " << opened.status() << "\n";
    return 1;
  }
  core::ShardedIndex& index = *opened->index;
  PrintFragReport("before", Fragmentation(index));
  core::CompactionStats total;
  while (true) {
    Result<core::CompactionStats> round = index.CompactOnce();
    if (!round.ok()) {
      std::cerr << "compaction failed: " << round.status() << "\n";
      return 1;
    }
    total.Merge(*round);
    if (!round->more_pending || round->lists_compacted == 0) break;
  }
  PrintFragReport("after", Fragmentation(index));
  std::cout << "compacted " << total.lists_compacted << " lists in "
            << total.rounds << " rounds: " << total.chunks_before << " -> "
            << total.chunks_after << " chunks, reclaimed "
            << total.blocks_reclaimed() << " blocks ("
            << total.read_ops << " reads, " << total.write_ops
            << " writes)\n";
  if (Status s = index.VerifyIntegrity(); !s.ok()) {
    std::cerr << "post-compaction integrity check failed: " << s << "\n";
    return 1;
  }
  Result<core::CheckpointInfo> info =
      InstallCheckpoint(index, opened->wal.get(), prefix);
  if (!info.ok()) {
    std::cerr << "checkpoint failed: " << info.status() << "\n";
    return 1;
  }
  std::cout << "checkpoint " << info->install_seq << " installed at "
            << prefix << "\n";
  return 0;
}

// Self-contained fragmentation drill: grow long lists chunk by chunk over
// many small batches (Style=new + proportional over-allocation, the
// worst-case fragmenter), compact, and prove postings are untouched.
int CompactDemo() {
  core::IndexOptions options = DefaultOptions();
  options.buckets.num_buckets = 64;
  options.buckets.bucket_capacity = 64;
  // New-style chunks with 2x proportional reserve: lists accrete a chunk
  // whenever the in-place tail fills, and every chunk carries dead
  // reserve — both fragmentation axes at once.
  options.policy = core::Policy::NewZ(core::AllocStrategy::kProportional, 2);
  options.block_postings = 16;
  options.disks.blocks_per_disk = 1 << 18;
  options.disks.block_size_bytes = 128;

  core::InvertedIndex index(options);
  core::InvertedIndex reference(options);
  constexpr int kWords = 48;
  Rng gen(11);
  DocId next_doc = 0;
  for (int b = 0; b < 24; ++b) {
    text::InvertedBatch batch;
    std::vector<std::vector<DocId>> lists(kWords);
    for (int d = 0; d < 30; ++d) {
      const DocId doc = next_doc++;
      for (int w = 0; w < kWords; ++w) {
        if (gen.Uniform(1 + static_cast<uint64_t>(w) / 6) == 0) {
          lists[w].push_back(doc);
        }
      }
    }
    for (int w = 0; w < kWords; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    if (Status s = index.ApplyInvertedBatch(batch); !s.ok()) {
      std::cerr << "apply failed: " << s << "\n";
      return 1;
    }
    if (Status s = reference.ApplyInvertedBatch(batch); !s.ok()) {
      std::cerr << "reference apply failed: " << s << "\n";
      return 1;
    }
  }

  const FragReport before = Fragmentation(index);
  PrintFragReport("before", before);
  core::CompactionStats total;
  while (true) {
    Result<core::CompactionStats> round = index.CompactOnce();
    if (!round.ok()) {
      std::cerr << "compaction failed: " << round.status() << "\n";
      return 1;
    }
    total.Merge(*round);
    if (!round->more_pending || round->lists_compacted == 0) break;
  }
  const FragReport after = Fragmentation(index);
  PrintFragReport("after", after);
  std::cout << "compacted " << total.lists_compacted << " lists, reclaimed "
            << total.blocks_reclaimed() << " blocks\n";
  if (after.utilization() <= before.utilization()) {
    std::cerr << "compaction did not improve utilization\n";
    return 1;
  }
  if (Status s = index.VerifyIntegrity(); !s.ok()) {
    std::cerr << "integrity check failed: " << s << "\n";
    return 1;
  }
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = index.GetPostings(w);
    if (expect.ok() != got.ok() || (expect.ok() && *expect != *got)) {
      std::cerr << "postings mismatch after compaction (word " << w << ")\n";
      return 1;
    }
  }
  std::cout << "verified: all postings identical to the uncompacted "
               "reference\n";
  return 0;
}

// Seeded end-to-end corruption drill: build a small materialized index
// through the WAL commit protocol, flip bits in live long-list blocks
// below the checksum layer (what a rotting platter does), then prove the
// checksum layer detects every flip, queries fail typed instead of
// returning garbage, and a WAL-repair scrub restores the exact index.
int ScrubDemo() {
  core::IndexOptions options = DefaultOptions();
  options.buckets.num_buckets = 32;
  options.buckets.bucket_capacity = 128;
  options.policy = core::Policy::WholeZ();
  options.block_postings = 16;
  options.disks.blocks_per_disk = 1 << 18;
  options.disks.block_size_bytes = 128;

  const std::string wal_path =
      (fs::temp_directory_path() / "duplexctl_scrub_demo.wal").string();
  std::remove(wal_path.c_str());
  Result<std::unique_ptr<core::BatchLog>> log =
      core::BatchLog::Open(wal_path);
  if (!log.ok()) {
    std::cerr << "cannot open WAL: " << log.status() << "\n";
    return 1;
  }
  (*log)->set_fsync(false);

  // Deterministic multi-batch workload, same shape as the recovery tests.
  core::InvertedIndex index(options);
  core::InvertedIndex reference(options);
  constexpr int kWords = 60;
  Rng gen(7);
  DocId next_doc = 0;
  for (int b = 0; b < 6; ++b) {
    text::InvertedBatch batch;
    std::vector<std::vector<DocId>> lists(kWords);
    for (int d = 0; d < 40; ++d) {
      const DocId doc = next_doc++;
      for (int w = 0; w < kWords; ++w) {
        if (gen.Uniform(1 + static_cast<uint64_t>(w) / 4) == 0) {
          lists[w].push_back(doc);
        }
      }
    }
    for (int w = 0; w < kWords; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    if (Status s = (*log)->ApplyLogged(&index, batch); !s.ok()) {
      std::cerr << "apply failed: " << s << "\n";
      return 1;
    }
    if (Status s = reference.ApplyInvertedBatch(batch); !s.ok()) {
      std::cerr << "reference apply failed: " << s << "\n";
      return 1;
    }
  }

  // Inject seeded bit flips below the checksum layer, one per chosen
  // chunk, across distinct live blocks.
  Rng rot(g_fault_seed);
  struct Flip {
    storage::DiskId disk;
    storage::BlockId block;
  };
  std::vector<Flip> flips;
  const auto& lists = index.long_list_store().directory().lists();
  std::vector<WordId> long_words;
  for (const auto& [word, list] : lists) long_words.push_back(word);
  std::sort(long_words.begin(), long_words.end());
  for (const WordId word : long_words) {
    if (flips.size() >= 6) break;
    const core::LongList& list = lists.at(word);
    for (const core::ChunkRef& chunk : list.chunks) {
      if (chunk.byte_length == 0) continue;
      const storage::BlockId block =
          chunk.range.start +
          rot.Uniform(1 + (chunk.byte_length - 1) /
                              options.disks.block_size_bytes);
      flips.push_back({chunk.range.disk, block});
      break;
    }
  }
  for (const Flip& f : flips) {
    storage::MemBlockDevice* dev = index.disks().base_device(f.disk);
    uint8_t byte = 0;
    const uint64_t offset =
        rot.Uniform(options.disks.block_size_bytes);
    (void)dev->Read(f.block, offset, &byte, 1);
    byte ^= uint8_t{1} << rot.Uniform(8);
    (void)dev->Write(f.block, offset, &byte, 1);
  }
  std::cout << "injected " << flips.size()
            << " bit flips (seed " << g_fault_seed << ")\n";

  // Every corrupted word must now fail typed — never return garbage.
  uint64_t typed_failures = 0;
  for (const WordId word : long_words) {
    Result<std::vector<DocId>> got = index.GetPostings(word);
    if (!got.ok()) {
      if (!got.status().IsCorruption()) {
        std::cerr << "expected Corruption, got: " << got.status() << "\n";
        return 1;
      }
      ++typed_failures;
    }
  }
  std::cout << "queries on damaged lists -> kCorruption (" << typed_failures
            << " words)\n";

  core::ScrubOptions scrub_options;
  Result<core::ScrubReport> report =
      core::ScrubIndex(&index, log->get(), scrub_options);
  if (!report.ok()) {
    std::cerr << "scrub failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << report->ToString() << "\n";
  if (report->corrupt_blocks < flips.size()) {
    std::cerr << "scrub missed corruptions: found "
              << report->corrupt_blocks << " of " << flips.size() << "\n";
    return 1;
  }
  if (!report->quarantined.empty()) {
    std::cerr << "scrub could not repair every word from the WAL\n";
    return 1;
  }

  // After repair: clean scrub, identical postings to the reference.
  Result<core::ScrubReport> recheck = core::ScrubIndex(&index, log->get());
  if (!recheck.ok() || !recheck->clean()) {
    std::cerr << "post-repair scrub still dirty\n";
    return 1;
  }
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = index.GetPostings(w);
    if (expect.ok() != got.ok() || (expect.ok() && *expect != *got)) {
      std::cerr << "postings mismatch after repair (word " << w << ")\n";
      return 1;
    }
  }
  std::remove(wal_path.c_str());
  std::cout << "repair verified: all postings match the uncorrupted "
               "reference\n";
  return 0;
}

// Self-contained crash + fast-restart drill: commit batches through the
// WAL, checkpoint mid-history (which truncates the covered prefix), commit
// more batches, then "crash" — drop every in-memory object — and recover a
// fresh index from the superblock. The recovered index must match an
// uncrashed reference list-for-list, and the replay must cover only the
// WAL tail past the checkpoint, not the whole history.
int RecoverDemo() {
  core::IndexOptions options = DefaultOptions();
  options.buckets.num_buckets = 64;
  options.buckets.bucket_capacity = 64;
  options.block_postings = 16;
  options.disks.blocks_per_disk = 1 << 18;
  options.disks.block_size_bytes = 128;

  const std::string dir =
      (fs::temp_directory_path() / "duplexctl_recover_demo").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create " << dir << ": " << ec.message() << "\n";
    return 1;
  }
  const std::string wal_path = dir + "/demo.wal";
  const std::string ckpt_prefix = dir + "/demo";

  core::InvertedIndex reference(options);
  constexpr int kWords = 48;
  constexpr int kBatches = 12;
  constexpr int kCheckpointAfter = 8;
  Rng gen(29);
  DocId next_doc = 0;
  core::RecoveryInfo recovered;
  {
    Result<std::unique_ptr<core::BatchLog>> log =
        core::BatchLog::Open(wal_path);
    if (!log.ok()) {
      std::cerr << "cannot open WAL: " << log.status() << "\n";
      return 1;
    }
    (*log)->set_fsync(false);
    core::InvertedIndex index(options);
    core::CheckpointOptions ckpt_options;
    ckpt_options.prefix = ckpt_prefix;
    core::Checkpointer checkpointer(ckpt_options);
    for (int b = 0; b < kBatches; ++b) {
      text::InvertedBatch batch;
      std::vector<std::vector<DocId>> lists(kWords);
      for (int d = 0; d < 30; ++d) {
        const DocId doc = next_doc++;
        for (int w = 0; w < kWords; ++w) {
          if (gen.Uniform(1 + static_cast<uint64_t>(w) / 6) == 0) {
            lists[w].push_back(doc);
          }
        }
      }
      for (int w = 0; w < kWords; ++w) {
        if (!lists[w].empty()) {
          batch.entries.push_back({static_cast<WordId>(w), lists[w]});
        }
      }
      if (Status s = (*log)->ApplyLogged(&index, batch); !s.ok()) {
        std::cerr << "apply failed: " << s << "\n";
        return 1;
      }
      if (Status s = reference.ApplyInvertedBatch(batch); !s.ok()) {
        std::cerr << "reference apply failed: " << s << "\n";
        return 1;
      }
      if (b + 1 == kCheckpointAfter) {
        Result<core::CheckpointInfo> info =
            checkpointer.Checkpoint(index, log->get());
        if (!info.ok()) {
          std::cerr << "checkpoint failed: " << info.status() << "\n";
          return 1;
        }
        std::cout << "checkpoint " << info->install_seq << " at WAL epoch "
                  << info->wal_epoch << " (" << info->payload_bytes
                  << " bytes); WAL truncated to the tail\n";
      }
    }
    // "Crash": everything in memory is dropped; only the WAL file, the
    // superblock, and the checkpoint image survive.
  }

  Result<std::unique_ptr<core::BatchLog>> log =
      core::BatchLog::Open(wal_path);
  if (!log.ok()) {
    std::cerr << "cannot reopen WAL: " << log.status() << "\n";
    return 1;
  }
  core::InvertedIndex index(options);
  core::CheckpointOptions ckpt_options;
  ckpt_options.prefix = ckpt_prefix;
  core::Checkpointer checkpointer(ckpt_options);
  Result<core::RecoveryInfo> info =
      checkpointer.Recover(&index, log->get());
  if (!info.ok()) {
    std::cerr << "recovery failed: " << info.status() << "\n";
    return 1;
  }
  recovered = *info;
  std::cout << "recovered (" << core::RecoveryModeName(recovered.mode) << "): "
            << recovered.batches_replayed << " WAL batches replayed"
            << " (checkpoint epoch " << recovered.checkpoint_epoch << ")\n";
  if (recovered.mode != core::RecoveryMode::kCheckpointTail) {
    std::cerr << "expected the checkpoint+tail fast path\n";
    return 1;
  }
  if (recovered.batches_replayed != kBatches - kCheckpointAfter) {
    std::cerr << "expected " << (kBatches - kCheckpointAfter)
              << " tail batches, replayed " << recovered.batches_replayed
              << "\n";
    return 1;
  }
  if (Status s = index.VerifyIntegrity(); !s.ok()) {
    std::cerr << "integrity check failed: " << s << "\n";
    return 1;
  }
  for (WordId w = 0; w < kWords; ++w) {
    const Result<std::vector<DocId>> expect = reference.GetPostings(w);
    const Result<std::vector<DocId>> got = index.GetPostings(w);
    if (expect.ok() != got.ok() || (expect.ok() && *expect != *got)) {
      std::cerr << "postings mismatch after recovery (word " << w << ")\n";
      return 1;
    }
  }
  fs::remove_all(dir, ec);
  std::cout << "verified: recovered index identical to the uncrashed "
               "reference\n";
  return 0;
}

// Deterministic built-in workload touching every instrumented layer, run
// under an ObservabilityScope by the `metrics` and `trace` subcommands.
// Phase 1 drives text documents into a materialized, cached, checksummed
// index sized so frequent words promote to long lists, then evaluates
// boolean queries twice (the second pass hits the buffer pool) and a
// cost-estimate sweep. Phase 2 commits WordId batches through the WAL and
// replays the log into a fresh index, covering the recovery path.
int RunObservedWorkload() {
  core::IndexOptions options = DefaultOptions();
  options.buckets.num_buckets = 128;
  options.buckets.bucket_capacity = 64;
  options.block_postings = 16;
  if (options.cache.capacity_blocks == 0) options.cache.capacity_blocks = 64;
  core::InvertedIndex index(options);

  static constexpr const char* kPool[] = {
      "alpha", "beta",  "gamma", "delta", "epsilon", "zeta",  "eta",
      "theta", "iota",  "kappa", "lambda", "mu",     "nu",    "xi",
      "omicron", "pi",  "rho",   "sigma", "tau",     "upsilon", "phi",
      "chi",   "psi",   "omega"};
  Rng rng(42);
  for (int d = 0; d < 96; ++d) {
    std::string text;
    for (int w = 0; w < 24; ++w) {
      text += kPool[rng.Uniform(std::size(kPool))];
      text += ' ';
    }
    index.AddDocument(text);
    if (index.buffered_documents() >= 32) {
      if (Status s = index.FlushDocuments(); !s.ok()) {
        std::cerr << "flush failed: " << s << "\n";
        return 1;
      }
    }
  }
  if (Status s = index.FlushDocuments(); !s.ok()) {
    std::cerr << "flush failed: " << s << "\n";
    return 1;
  }

  const std::vector<std::string> queries = {
      "alpha AND beta",          "gamma OR delta", "alpha AND NOT omega",
      "(pi OR rho) AND sigma",   "tau upsilon",    "kappa AND NOT lambda"};
  ir::QueryExecutor executor(index);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& q : queries) {
      Result<ir::QueryResult> result = executor.EvaluateBoolean(q);
      if (!result.ok()) {
        std::cerr << "query error: " << result.status() << "\n";
        return 1;
      }
    }
  }
  ir::QueryWorkloadGenerator generator(index, 7);
  for (int i = 0; i < 16; ++i) {
    (void)generator.EstimateCost(generator.SampleBooleanTerms(4));
  }

  const std::string wal_path =
      (fs::temp_directory_path() / "duplexctl_observe.wal").string();
  std::remove(wal_path.c_str());
  Result<std::unique_ptr<core::BatchLog>> log =
      core::BatchLog::Open(wal_path);
  if (!log.ok()) {
    std::cerr << "cannot open WAL: " << log.status() << "\n";
    return 1;
  }
  core::IndexOptions wal_options = DefaultOptions();
  wal_options.buckets.num_buckets = 64;
  wal_options.buckets.bucket_capacity = 64;
  wal_options.block_postings = 16;
  core::InvertedIndex wal_index(wal_options);
  constexpr int kWords = 30;
  Rng gen(9);
  DocId next_doc = 0;
  for (int b = 0; b < 4; ++b) {
    text::InvertedBatch batch;
    std::vector<std::vector<DocId>> lists(kWords);
    for (int d = 0; d < 24; ++d) {
      const DocId doc = next_doc++;
      for (int w = 0; w < kWords; ++w) {
        if (gen.Uniform(1 + static_cast<uint64_t>(w) / 4) == 0) {
          lists[w].push_back(doc);
        }
      }
    }
    for (int w = 0; w < kWords; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    if (Status s = (*log)->ApplyLogged(&wal_index, batch); !s.ok()) {
      std::cerr << "logged apply failed: " << s << "\n";
      return 1;
    }
  }
  core::InvertedIndex replay_index(wal_options);
  if (Status s = (*log)->ReplayInto(&replay_index); !s.ok()) {
    std::cerr << "replay failed: " << s << "\n";
    return 1;
  }
  std::remove(wal_path.c_str());
  return 0;
}

// `duplexctl metrics` / `duplexctl trace`: run the built-in workload with
// a fresh registry + tracer installed and print the requested exposition
// on stdout (stdout carries nothing else, so it pipes straight into
// promtool / Perfetto). The three export files land in out-dir, default
// a fixed path under the system temp directory.
int Observe(bool want_trace, std::string out_dir) {
  if (out_dir.empty()) {
    out_dir = (fs::temp_directory_path() / "duplexctl_observe").string();
  }
  sim::ObservabilityScope scope(out_dir);
  if (int rc = RunObservedWorkload(); rc != 0) return rc;
  const std::string exposition = want_trace
                                     ? scope.tracer()->ExportChromeTrace()
                                     : scope.registry()->ExportPrometheus();
  std::cout << exposition;
  if (exposition.empty() || exposition.back() != '\n') std::cout << "\n";
  if (Status s = scope.Export(); !s.ok()) {
    std::cerr << "export failed: " << s << "\n";
    return 1;
  }
  std::cerr << "wrote metrics.prom, metrics.json, trace.json to " << out_dir
            << "\n";
  return 0;
}

int NetPing(const std::string& host, uint16_t port) {
  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "cannot connect: " << client.status() << "\n";
    return 1;
  }
  if (Status s = client->Ping(); !s.ok()) {
    std::cerr << "ping failed: " << s << "\n";
    return 1;
  }
  std::cout << "pong from " << host << ":" << port << "\n";
  return 0;
}

int NetQuery(const std::string& host, uint16_t port,
             const std::string& query) {
  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "cannot connect: " << client.status() << "\n";
    return 1;
  }
  Result<ir::QueryResult> result = client->Boolean(query);
  if (!result.ok()) {
    std::cerr << "query error: " << result.status() << "\n";
    return 1;
  }
  std::cout << result->docs.size() << " matching documents ("
            << result->read_ops << " list reads):";
  for (const DocId d : result->docs) std::cout << " " << d;
  std::cout << "\n";
  return 0;
}

int NetStats(const std::string& host, uint16_t port) {
  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "cannot connect: " << client.status() << "\n";
    return 1;
  }
  Result<std::string> stats = client->StatsJson();
  if (!stats.ok()) {
    std::cerr << "stats failed: " << stats.status() << "\n";
    return 1;
  }
  std::cout << *stats << "\n";
  return 0;
}

// Admin-plane fetch: GETs one endpoint from a running duplexd
// --admin-port and prints the body. Non-200 still prints (the /readyz
// 503 body IS the answer) but exits nonzero so scripts can branch.
int AdminGet(const std::string& host, uint16_t port,
             const std::string& path) {
  Result<net::HttpResponse> resp = net::HttpGet(host, port, path);
  if (!resp.ok()) {
    std::cerr << "cannot fetch " << path << ": " << resp.status() << "\n";
    return 1;
  }
  std::cout << resp->body;
  if (!resp->body.empty() && resp->body.back() != '\n') std::cout << "\n";
  return resp->status_code == 200 ? 0 : 1;
}

int NetSubmit(const std::string& host, uint16_t port,
              const std::vector<std::string>& inputs) {
  std::vector<std::string> documents;
  for (const std::string& input : inputs) {
    std::ifstream in(input);
    if (!in) {
      std::cerr << "cannot read " << input << ", skipping\n";
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    documents.push_back(text.str());
  }
  if (documents.empty()) {
    std::cerr << "no readable input files\n";
    return 1;
  }
  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "cannot connect: " << client.status() << "\n";
    return 1;
  }
  Result<net::SubmitDocumentsResponse> resp = client->Submit(documents);
  if (!resp.ok()) {
    std::cerr << "submit failed: " << resp.status() << "\n";
    return 1;
  }
  std::cout << "accepted " << resp->accepted << " documents starting at doc "
            << resp->first_doc;
  if (resp->wal_batch_id != 0) {
    std::cout << " (WAL batch " << resp->wal_batch_id << ")";
  }
  std::cout << "\n";
  return 0;
}

int NetSubmitLive(const std::string& host, uint16_t port,
                  const std::vector<std::string>& inputs) {
  // Inputs are files, except a literal "--text" prefix switches the rest
  // of the arguments to inline document bodies (handy for quickstarts:
  // no temp files needed to watch a document become searchable).
  std::vector<std::string> documents;
  bool inline_text = false;
  for (const std::string& input : inputs) {
    if (!inline_text && input == "--text") {
      inline_text = true;
      continue;
    }
    if (inline_text) {
      documents.push_back(input);
      continue;
    }
    std::ifstream in(input);
    if (!in) {
      std::cerr << "cannot read " << input << ", skipping\n";
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    documents.push_back(text.str());
  }
  if (documents.empty()) {
    std::cerr << "no readable input documents\n";
    return 1;
  }
  Result<net::Client> client = net::Client::Connect(host, port);
  if (!client.ok()) {
    std::cerr << "cannot connect: " << client.status() << "\n";
    return 1;
  }
  Result<net::SubmitLiveResponse> resp = client->SubmitLive(documents);
  if (!resp.ok()) {
    std::cerr << "submit-live failed: " << resp.status() << "\n";
    return 1;
  }
  std::cout << "accepted " << resp->accepted
            << " documents starting at doc " << resp->first_doc
            << ", visible now (delta epoch " << resp->epoch << ", "
            << resp->delta_docs << " docs awaiting drain)";
  if (resp->wal_batch_id != 0) {
    std::cout << " (WAL batch " << resp->wal_batch_id << ")";
  }
  std::cout << "\n";
  return 0;
}

int Demo() {
  const std::string dir = fs::temp_directory_path() / "duplexctl_demo";
  fs::create_directories(dir);
  const std::vector<std::pair<std::string, std::string>> docs = {
      {"a.txt", "the quick brown fox jumps over the lazy dog"},
      {"b.txt", "inverted lists map words to documents"},
      {"c.txt", "the dog reads the inverted index"},
  };
  for (const auto& [name, text] : docs) {
    std::ofstream(dir + "/" + name) << text;
  }
  // Keep the checkpoint outside the indexed directory so re-running the
  // demo does not index the checkpoint files themselves.
  const std::string prefix = dir + "_checkpoint";
  std::cout << "== demo: build ==\n";
  if (int rc = Build(prefix, {dir}); rc != 0) return rc;
  std::cout << "\n== demo: query 'dog AND NOT fox' ==\n";
  if (int rc = Query(prefix, "dog AND NOT fox"); rc != 0) return rc;
  std::cout << "\n== demo: stats ==\n";
  return Stats(prefix);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // Peel global flags off the front, in any order.
  while (args.size() >= 2 && (args[0].rfind("--cache-", 0) == 0 ||
                              args[0] == "--fault-seed")) {
    if (args[0] == "--cache-blocks") {
      g_cache.capacity_blocks = std::strtoull(args[1].c_str(), nullptr, 10);
    } else if (args[0] == "--fault-seed") {
      g_fault_seed = std::strtoull(args[1].c_str(), nullptr, 10);
    } else if (args[0] == "--cache-mode") {
      duplex::Result<storage::CacheMode> mode =
          storage::ParseCacheMode(args[1]);
      if (!mode.ok()) {
        std::cerr << "unknown cache mode '" << args[1]
                  << "' (write-through|write-back)\n";
        return 2;
      }
      g_cache.mode = *mode;
    } else {
      std::cerr << "unknown flag " << args[0] << "\n";
      return 2;
    }
    args.erase(args.begin(), args.begin() + 2);
  }
  if (args.empty() || args[0] == "demo") return Demo();
  if (args[0] == "build" && args.size() >= 3) {
    return Build(args[1], {args.begin() + 2, args.end()});
  }
  if (args[0] == "query" && args.size() == 3) {
    return Query(args[1], args[2]);
  }
  if (args[0] == "stats" && args.size() == 2) return Stats(args[1]);
  if (args[0] == "scrub" && args.size() == 2) return Scrub(args[1]);
  if (args[0] == "scrub-demo" && args.size() == 1) return ScrubDemo();
  if (args[0] == "compact" && args.size() == 2) return Compact(args[1]);
  if (args[0] == "compact-demo" && args.size() == 1) return CompactDemo();
  if (args[0] == "recover-demo" && args.size() == 1) return RecoverDemo();
  if (args[0] == "net-ping" && args.size() == 3) {
    return NetPing(args[1], static_cast<uint16_t>(
                                std::strtoul(args[2].c_str(), nullptr, 10)));
  }
  if (args[0] == "net-query" && args.size() == 4) {
    return NetQuery(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    args[3]);
  }
  if (args[0] == "net-stats" && args.size() == 3) {
    return NetStats(args[1], static_cast<uint16_t>(
                                 std::strtoul(args[2].c_str(), nullptr, 10)));
  }
  if (args[0] == "net-submit" && args.size() >= 4) {
    return NetSubmit(args[1],
                     static_cast<uint16_t>(
                         std::strtoul(args[2].c_str(), nullptr, 10)),
                     {args.begin() + 3, args.end()});
  }
  if (args[0] == "net-submit-live" && args.size() >= 4) {
    return NetSubmitLive(args[1],
                         static_cast<uint16_t>(
                             std::strtoul(args[2].c_str(), nullptr, 10)),
                         {args.begin() + 3, args.end()});
  }
  if (args[0] == "net-metrics" && args.size() == 3) {
    return AdminGet(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    "/metrics");
  }
  if (args[0] == "net-status" && args.size() == 3) {
    return AdminGet(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    "/statusz");
  }
  if (args[0] == "net-ready" && args.size() == 3) {
    return AdminGet(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    "/readyz");
  }
  if (args[0] == "net-health" && args.size() == 3) {
    return AdminGet(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    "/healthz");
  }
  if (args[0] == "net-slow" && args.size() == 3) {
    return AdminGet(args[1],
                    static_cast<uint16_t>(
                        std::strtoul(args[2].c_str(), nullptr, 10)),
                    "/slowz");
  }
  if (args[0] == "metrics" && args.size() <= 2) {
    return Observe(/*want_trace=*/false, args.size() == 2 ? args[1] : "");
  }
  if (args[0] == "trace" && args.size() <= 2) {
    return Observe(/*want_trace=*/true, args.size() == 2 ? args[1] : "");
  }
  std::cerr << "usage: duplexctl [--cache-blocks <n>] [--cache-mode "
               "write-through|write-back] [--fault-seed <n>]\n"
               "                 build <prefix> <file-or-dir>...\n"
               "       duplexctl query <prefix> \"<boolean query>\"\n"
               "       duplexctl stats <prefix>\n"
               "       duplexctl scrub <prefix>\n"
               "       duplexctl scrub-demo\n"
               "       duplexctl compact <prefix>\n"
               "       duplexctl compact-demo\n"
               "       duplexctl recover-demo\n"
               "       duplexctl metrics [out-dir]\n"
               "       duplexctl trace [out-dir]\n"
               "       duplexctl net-ping <host> <port>\n"
               "       duplexctl net-query <host> <port> \"<boolean query>\"\n"
               "       duplexctl net-stats <host> <port>\n"
               "       duplexctl net-submit <host> <port> <file>...\n"
               "       duplexctl net-submit-live <host> <port> "
               "<file>... | --text <doc>...\n"
               "       duplexctl net-metrics <host> <admin-port>\n"
               "       duplexctl net-status <host> <admin-port>\n"
               "       duplexctl net-ready <host> <admin-port>\n"
               "       duplexctl net-health <host> <admin-port>\n"
               "       duplexctl net-slow <host> <admin-port>\n"
               "       duplexctl demo\n";
  return 2;
}
