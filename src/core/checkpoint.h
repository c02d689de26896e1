#ifndef DUPLEX_CORE_CHECKPOINT_H_
#define DUPLEX_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/batch_log.h"
#include "core/inverted_index.h"
#include "storage/fault_injection.h"
#include "storage/superblock.h"
#include "util/status.h"

namespace duplex::core {

class ShardedIndex;

// How Recover() reconstructed the index.
enum class RecoveryMode {
  // Nothing to recover: no checkpoint installed and an empty WAL.
  kEmpty,
  // Fast path: newest intact checkpoint restored, WAL tail replayed.
  kCheckpointTail,
  // Degraded path: no usable checkpoint (never installed, or every
  // candidate damaged) but the WAL still holds full history — the index
  // was rebuilt by replaying everything. Slower, never wrong.
  kFullRebuild,
};

// "empty", "checkpoint+tail" or "full-rebuild", for logs and CLIs.
const char* RecoveryModeName(RecoveryMode mode);

struct RecoveryInfo {
  RecoveryMode mode = RecoveryMode::kEmpty;
  // WAL epoch of the checkpoint that was restored (kCheckpointTail only).
  uint64_t checkpoint_epoch = 0;
  // Batches replayed from the WAL after the restore (or the whole history
  // for kFullRebuild).
  uint64_t batches_replayed = 0;
  // Human-readable trail: which install was used, which candidates were
  // rejected and why. For operators' logs, not for parsing.
  std::string detail;
};

struct CheckpointOptions {
  // Path prefix for every checkpoint artifact: the superblock lives at
  // <prefix>.super, checkpoint payloads at <prefix>.ckpt-<seq> (plus
  // -shard<k> per shard for a sharded index) in the same directory.
  std::string prefix;
  // Truncate the WAL tail after a durable install, so the log only holds
  // batches the checkpoint does not cover. Disable to keep full history
  // (e.g. while validating the subsystem in production).
  bool truncate_wal = true;
  // Fault schedule armed on every physical step of the checkpoint
  // protocol — payload chunk writes and syncs, superblock slot halves,
  // WAL truncation writes and rename — numbering them under ONE op
  // counter so crash sweeps can stop the protocol at every boundary.
  std::shared_ptr<storage::FaultSchedule> fault;
};

// Result of one successful Checkpoint() call.
struct CheckpointInfo {
  uint64_t install_seq = 0;
  // First WAL batch id NOT covered by this checkpoint.
  uint64_t wal_epoch = 0;
  uint64_t payload_bytes = 0;
  // Full path of the installed payload (checkpoint image, or manifest for
  // a sharded index).
  std::string payload_path;
};

// The checkpoint subsystem: restart = load last durable snapshot + replay
// only the WAL tail, instead of replaying the entire history.
//
// Checkpoint() serializes the index's logical state (long-list directory
// postings, bucket lists, vocabulary, doc state, compaction totals) into
// an epoch-stamped image file, installs it through the dual-slot
// storage::Superblock, then truncates the WAL to the covered epoch. Every
// physical step happens BEFORE the one that makes it load-bearing:
//
//   write image -> sync -> install slot (2 half writes + sync) -> rewrite
//   WAL tail to tmp -> sync -> rename
//
// so a crash at any op leaves either the previous checkpoint (slot not
// yet flipped, old WAL intact) or the new one (slot flipped; old or new
// WAL both replay correctly from the new image). Restore is logical: the
// image holds posting lists and their home structure (long vs bucket),
// and RestoreWord re-derives chunk placement through the policy path —
// equivalence with the uncrashed index is list-for-list, not
// block-for-block.
//
// Recover() walks the superblock's intact records newest-first, fully
// validates a candidate (length, checksum, magic, geometry) before
// touching the index, replays the WAL tail from the image's epoch, and
// degrades to a full WAL rebuild with a typed RecoveryInfo when no
// candidate survives — never garbage: a damaged checkpoint plus a
// truncated or empty WAL is a typed kCorruption error, not a silently
// partial or empty index.
//
// Single-writer by contract, like the Superblock underneath: one
// Checkpointer per index at a time. For ShardedIndex the checkpoint runs
// under a quiesced view (doc mutex + every shard's shared lock), so it
// can run concurrently with queries but serializes against batch applies.
class Checkpointer {
 public:
  explicit Checkpointer(CheckpointOptions options);

  // Serializes `index` and installs it. `log` may be null (no WAL: epoch
  // 0, nothing truncated). With a log, every appended batch must already
  // be applied — FailedPrecondition otherwise, because a checkpoint can
  // only cover committed work.
  Result<CheckpointInfo> Checkpoint(const InvertedIndex& index,
                                    BatchLog* log);
  // Sharded variant: per-shard images under one manifest, captured from a
  // quiesced view so the set of shard images is one consistent cut.
  Result<CheckpointInfo> Checkpoint(const ShardedIndex& index,
                                    BatchLog* log);

  // Restores into a FRESHLY CONSTRUCTED index (same options as the
  // checkpointed one — geometry is validated, FailedPrecondition on
  // mismatch) and replays the WAL tail. `log` may be null: restore only.
  Result<RecoveryInfo> Recover(InvertedIndex* index, BatchLog* log);
  Result<RecoveryInfo> Recover(ShardedIndex* index, BatchLog* log);

  const CheckpointOptions& options() const { return options_; }
  std::string superblock_path() const { return options_.prefix + ".super"; }

 private:
  // Opens the superblock with the fault schedule armed.
  Result<std::unique_ptr<storage::Superblock>> OpenSuperblock();
  // Shared tail of both Checkpoint overloads: write `payload` to
  // <dir>/<name> (fault-aware), install the superblock record, truncate
  // the WAL to `epoch`, clean up unreferenced checkpoint files.
  Result<CheckpointInfo> FinishInstall(storage::Superblock* sb,
                                       const std::string& name,
                                       const std::string& payload,
                                       uint64_t epoch, BatchLog* log);
  // Shared degraded tail of both Recover overloads: no usable checkpoint
  // candidate; full WAL rebuild if the history is complete, typed error
  // if it was truncated or if `sb` holds an intact install but the WAL
  // holds nothing to rebuild from. `replay` runs the actual full replay.
  Result<RecoveryInfo> RecoverWithoutCheckpoint(
      BatchLog* log, const storage::Superblock& sb, std::string detail,
      const std::function<Status(uint64_t* replayed)>& replay);
  // Best-effort: removes <base>.ckpt-* files not referenced by any valid
  // superblock slot (a file is referenced if it IS a slot's payload or a
  // "-shard<k>" satellite of one). Never consults the fault schedule —
  // cleanup is not part of the durability protocol.
  void RemoveStaleCheckpoints(const storage::Superblock& sb);

  CheckpointOptions options_;
  std::string dir_;   // directory holding every artifact
  std::string base_;  // file-name part of the prefix
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_CHECKPOINT_H_
