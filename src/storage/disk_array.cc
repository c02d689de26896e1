#include "storage/disk_array.h"

#include <string>

#include "util/logging.h"

namespace duplex::storage {

const char* DiskChoiceName(DiskChoice c) {
  switch (c) {
    case DiskChoice::kRoundRobin:
      return "round-robin";
    case DiskChoice::kMostFree:
      return "most-free";
  }
  return "unknown";
}

DiskArray::DiskArray(const DiskArrayOptions& options) : options_(options) {
  DUPLEX_CHECK_GT(options.num_disks, 0u);
  if (options.cache.enabled()) {
    pool_ = std::make_unique<BufferPool>(options.cache,
                                         options.block_size_bytes,
                                         options.materialize_payloads);
  }
  if (options.fault_schedule != nullptr) {
    fault_schedule_ = options.fault_schedule;
  } else if (options.fault.enabled()) {
    fault_schedule_ = std::make_shared<FaultSchedule>(options.fault);
  }
  disks_.reserve(options.num_disks);
  for (uint32_t i = 0; i < options.num_disks; ++i) {
    Disk d;
    d.space = MakeFreeSpaceMap(options.free_space, options.blocks_per_disk);
    if (options.materialize_payloads) {
      d.device = std::make_unique<MemBlockDevice>(options.blocks_per_disk,
                                                  options.block_size_bytes);
      // Stack, bottom up: Mem -> Fault -> Checksum -> Caching. Each layer
      // is optional; `top` is whatever ended up outermost.
      d.top = d.device.get();
      if (fault_schedule_ != nullptr) {
        d.faulty = std::make_unique<FaultInjectingBlockDevice>(
            d.top, fault_schedule_);
        d.top = d.faulty.get();
      }
      if (options.checksums) {
        d.checksum = std::make_unique<ChecksumBlockDevice>(d.top);
        d.top = d.checksum.get();
      }
      if (pool_ != nullptr) {
        d.cached = std::make_unique<CachingBlockDevice>(d.top, pool_.get());
        d.cache_client = d.cached->client_id();
        d.top = d.cached.get();
      }
    } else if (pool_ != nullptr) {
      d.cache_client = pool_->RegisterClient(nullptr);
    }
    disks_.push_back(std::move(d));
  }
}

DiskId DiskArray::NextDisk() {
  if (options_.disk_choice == DiskChoice::kMostFree) {
    DiskId best = 0;
    uint64_t best_free = 0;
    for (DiskId i = 0; i < num_disks(); ++i) {
      const uint64_t f = disks_[i].space->free_blocks();
      if (f > best_free) {
        best_free = f;
        best = i;
      }
    }
    return best;
  }
  // Paper: "the strategy considered here is to choose disk i+1 mod n".
  cursor_ = (cursor_ + 1) % num_disks();
  return cursor_;
}

Result<BlockRange> DiskArray::AllocateOn(DiskId disk, uint64_t length) {
  DUPLEX_CHECK_LT(disk, num_disks());
  Result<BlockId> start = disks_[disk].space->Allocate(length);
  if (!start.ok()) return start.status();
  return BlockRange{disk, *start, length};
}

Result<BlockRange> DiskArray::Allocate(uint64_t length) {
  const DiskId chosen = NextDisk();
  Result<BlockRange> r = AllocateOn(chosen, length);
  if (r.ok()) return r;
  for (DiskId offset = 1; offset < num_disks(); ++offset) {
    const DiskId d = (chosen + offset) % num_disks();
    r = AllocateOn(d, length);
    if (r.ok()) return r;
  }
  return Status::ResourceExhausted("all disks full for run of " +
                                   std::to_string(length) + " blocks");
}

Status DiskArray::Free(const BlockRange& range) {
  // Typed, not a CHECK: the compactor frees chunks on the hot path, and a
  // corrupted directory entry must surface as a recoverable error, not an
  // abort. Double frees and frees of unallocated space are likewise typed
  // by the FreeSpaceMap below (kCorruption / kInvalidArgument).
  if (range.disk >= num_disks()) {
    return Status::InvalidArgument(
        "free of range on unknown disk " + std::to_string(range.disk) +
        " (array has " + std::to_string(num_disks()) + ")");
  }
  if (range.length == 0) {
    return Status::InvalidArgument("free of empty block range");
  }
  if (pool_ != nullptr) {
    // The blocks are dead; cached copies must not be served (or written
    // back) if the range is later reallocated.
    pool_->Invalidate(disks_[range.disk].cache_client, range.start,
                      range.length);
  }
  if (disks_[range.disk].checksum != nullptr) {
    // Likewise drop the integrity claim: a reallocated block starts fresh,
    // not "corrupt because it no longer matches its previous life".
    disks_[range.disk].checksum->Forget(range.start, range.length);
  }
  DUPLEX_RETURN_IF_ERROR(
      disks_[range.disk].space->Free(range.start, range.length));
  if (disks_[range.disk].device != nullptr) {
    // The stored bytes go too, so memory follows the live chunks rather
    // than every block ever written; a freed block reads as zeros.
    disks_[range.disk].device->Discard(range.start, range.length);
  }
  return Status::OK();
}

uint64_t DiskArray::free_blocks(DiskId disk) const {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].space->free_blocks();
}

uint64_t DiskArray::used_blocks(DiskId disk) const {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].space->used_blocks();
}

uint64_t DiskArray::total_free_blocks() const {
  uint64_t sum = 0;
  for (const auto& d : disks_) sum += d.space->free_blocks();
  return sum;
}

uint64_t DiskArray::total_used_blocks() const {
  uint64_t sum = 0;
  for (const auto& d : disks_) sum += d.space->used_blocks();
  return sum;
}

uint64_t DiskArray::fragment_count(DiskId disk) const {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].space->fragment_count();
}

BlockDevice* DiskArray::device(DiskId disk) {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].top;
}

const BlockDevice* DiskArray::device(DiskId disk) const {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].top;
}

ChecksumBlockDevice* DiskArray::checksum_device(DiskId disk) {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].checksum.get();
}

BlockDevice* DiskArray::scrub_device(DiskId disk) {
  DUPLEX_CHECK_LT(disk, num_disks());
  Disk& d = disks_[disk];
  if (d.checksum != nullptr) return d.checksum.get();
  if (d.faulty != nullptr) return d.faulty.get();
  return d.device.get();
}

MemBlockDevice* DiskArray::base_device(DiskId disk) {
  DUPLEX_CHECK_LT(disk, num_disks());
  return disks_[disk].device.get();
}

uint64_t DiskArray::CacheTouchRead(const BlockRange& range, uint64_t nblocks) {
  if (pool_ == nullptr || nblocks == 0) return 0;
  DUPLEX_CHECK_LT(range.disk, num_disks());
  const uint32_t client = disks_[range.disk].cache_client;
  if (options_.materialize_payloads) {
    return pool_->PeekResident(client, range.start, nblocks);
  }
  return pool_->TouchRead(client, range.start, nblocks);
}

void DiskArray::CacheNoteWrite(const BlockRange& range, uint64_t nblocks) {
  if (pool_ == nullptr || nblocks == 0 || options_.materialize_payloads) {
    return;
  }
  DUPLEX_CHECK_LT(range.disk, num_disks());
  pool_->TouchWrite(disks_[range.disk].cache_client, range.start, nblocks);
}

uint64_t DiskArray::CachePeek(DiskId disk, BlockId start,
                              uint64_t nblocks) const {
  if (pool_ == nullptr || nblocks == 0) return 0;
  DUPLEX_CHECK_LT(disk, num_disks());
  return pool_->PeekResident(disks_[disk].cache_client, start, nblocks);
}

Status DiskArray::FlushCache() {
  if (pool_ == nullptr) return Status::OK();
  return pool_->Flush();
}

CacheStats DiskArray::cache_stats() const {
  return pool_ != nullptr ? pool_->stats() : CacheStats{};
}

}  // namespace duplex::storage
