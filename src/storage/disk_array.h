#ifndef DUPLEX_STORAGE_DISK_ARRAY_H_
#define DUPLEX_STORAGE_DISK_ARRAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/block.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "storage/checksum_device.h"
#include "storage/fault_injection.h"
#include "storage/free_space.h"
#include "util/status.h"

namespace duplex::storage {

// How to pick the disk for a new word or chunk. The paper (Section 3,
// second issue) uses round-robin (i+1 mod n) and names most-empty as an
// unstudied alternative; both are implemented for the ablation bench.
enum class DiskChoice {
  kRoundRobin,
  kMostFree,
};

const char* DiskChoiceName(DiskChoice c);

struct DiskArrayOptions {
  uint32_t num_disks = 4;
  uint64_t blocks_per_disk = 1 << 20;  // 4 GiB at 4 KiB blocks
  uint64_t block_size_bytes = 4096;
  FreeSpaceStrategy free_space = FreeSpaceStrategy::kFirstFit;
  DiskChoice disk_choice = DiskChoice::kRoundRobin;
  // When true, each disk carries a MemBlockDevice so posting payloads are
  // actually stored (required for query evaluation; the simulation pipeline
  // leaves it off).
  bool materialize_payloads = false;
  // Block cache shared by all disks of the array. Disabled (capacity 0)
  // by default. With materialized payloads the devices handed out by
  // device() are CachingBlockDevice decorators; without, the pool runs in
  // accounting-only mode so the count-only pipeline still models hit/miss
  // behaviour of the same block access stream.
  BufferPoolOptions cache;
  // Fault injection under everything else (materialized arrays only). If
  // `fault_schedule` is set it is shared as-is (so a sweep harness can keep
  // one op counter across index rebuilds); otherwise a schedule is built
  // from `fault` when fault.enabled(). The device stack per disk is then
  //   Mem -> FaultInjecting -> [Checksum] -> [Caching].
  FaultScheduleOptions fault;
  std::shared_ptr<FaultSchedule> fault_schedule;
  // Per-block FNV-1a checksums verified on every physical read, so silent
  // corruption surfaces as Status kCorruption instead of garbage postings.
  bool checksums = false;
};

// A bank of simulated disks: per-disk free-space management plus optional
// payload storage, with the chunk-placement strategy on top.
class DiskArray {
 public:
  explicit DiskArray(const DiskArrayOptions& options);

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  uint32_t num_disks() const { return static_cast<uint32_t>(disks_.size()); }
  uint64_t block_size() const { return options_.block_size_bytes; }

  // Picks the disk for the next new word/chunk per the configured strategy
  // and advances the round-robin cursor.
  DiskId NextDisk();

  // Allocates `length` contiguous blocks on `disk`.
  Result<BlockRange> AllocateOn(DiskId disk, uint64_t length);

  // Allocates on the strategy-chosen disk; falls back to scanning all other
  // disks if the chosen one is full.
  Result<BlockRange> Allocate(uint64_t length);

  // Returns a range to free space, invalidating cached frames and
  // forgetting checksums first, then dropping the range's stored bytes
  // (it reads as zeros until rewritten). Errors are typed, never fatal:
  // an unknown disk or empty range is kInvalidArgument, a double free
  // (overlap with an existing free run) is kCorruption — callers on the
  // compaction hot path recover instead of aborting.
  Status Free(const BlockRange& range);

  uint64_t free_blocks(DiskId disk) const;
  uint64_t used_blocks(DiskId disk) const;
  uint64_t total_free_blocks() const;
  uint64_t total_used_blocks() const;
  uint64_t fragment_count(DiskId disk) const;

  // Payload access; null when materialize_payloads is off. With a cache
  // configured this is the CachingBlockDevice decorator, so all callers
  // go through the pool without knowing it exists.
  BlockDevice* device(DiskId disk);
  const BlockDevice* device(DiskId disk) const;

  // --- Cache integration --------------------------------------------------
  // All of these are safe no-ops when no cache is configured.

  bool cache_enabled() const { return pool_ != nullptr; }
  BufferPool* buffer_pool() { return pool_.get(); }
  const BufferPool* buffer_pool() const { return pool_.get(); }

  // Accounts a logical read of `nblocks` starting at range.start and
  // returns how many of them were cache-resident. Count-only arrays run
  // the full TouchRead simulation; materialized arrays only peek — there
  // the device path through the pool is the accounting authority, and a
  // second touch here would double-count.
  uint64_t CacheTouchRead(const BlockRange& range, uint64_t nblocks);

  // Accounts a logical write. Count-only arrays simulate write-allocate;
  // materialized arrays no-op (the device path already saw the write).
  void CacheNoteWrite(const BlockRange& range, uint64_t nblocks);

  // Residency probe without stats or recency side effects.
  uint64_t CachePeek(DiskId disk, BlockId start, uint64_t nblocks) const;

  // Writes every dirty frame back to the base devices (write-back mode).
  Status FlushCache();

  CacheStats cache_stats() const;

  // --- Fault / integrity integration --------------------------------------

  // Shared schedule driving every disk's fault decorator; null when fault
  // injection is off.
  FaultSchedule* fault_schedule() { return fault_schedule_.get(); }
  std::shared_ptr<FaultSchedule> shared_fault_schedule() const {
    return fault_schedule_;
  }

  // Checksum layer for one disk; null when checksums are off.
  ChecksumBlockDevice* checksum_device(DiskId disk);

  // Device below the cache (checksum layer if on, else fault layer, else
  // raw). A scrub reads through this so cached-but-not-evicted copies
  // cannot mask on-device damage.
  BlockDevice* scrub_device(DiskId disk);

  // Raw in-memory device, below even the fault layer. Tests use it to
  // plant post-hoc corruption exactly where a real disk would rot.
  MemBlockDevice* base_device(DiskId disk);

 private:
  struct Disk {
    std::unique_ptr<FreeSpaceMap> space;
    std::unique_ptr<MemBlockDevice> device;
    // Optional decorators over `device`, innermost first.
    std::unique_ptr<FaultInjectingBlockDevice> faulty;
    std::unique_ptr<ChecksumBlockDevice> checksum;
    std::unique_ptr<CachingBlockDevice> cached;
    uint32_t cache_client = 0;
    // Topmost layer handed out by device().
    BlockDevice* top = nullptr;
  };

  DiskArrayOptions options_;
  std::vector<Disk> disks_;
  std::unique_ptr<BufferPool> pool_;
  std::shared_ptr<FaultSchedule> fault_schedule_;
  uint32_t cursor_ = 0;
};

}  // namespace duplex::storage

#endif  // DUPLEX_STORAGE_DISK_ARRAY_H_
