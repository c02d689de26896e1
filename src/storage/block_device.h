#ifndef DUPLEX_STORAGE_BLOCK_DEVICE_H_
#define DUPLEX_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/block.h"
#include "util/metrics.h"
#include "util/status.h"

namespace duplex::storage {

// Byte-addressed storage for one disk, at block granularity underneath.
// The core library stores encoded posting payloads through this interface;
// the simulation pipeline runs without a device (counts only).
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint64_t capacity_blocks() const = 0;
  virtual uint64_t block_size() const = 0;

  // Writes `len` bytes starting `byte_offset` bytes into block `start`.
  // The write must stay within the device.
  virtual Status Write(BlockId start, uint64_t byte_offset,
                       const uint8_t* data, size_t len) = 0;

  // Reads `len` bytes starting `byte_offset` bytes into block `start`.
  // Unwritten bytes read as zero.
  virtual Status Read(BlockId start, uint64_t byte_offset, uint8_t* out,
                      size_t len) const = 0;
};

// In-memory sparse block device. Only blocks ever written consume memory,
// and each block holds only the bytes up to the highest one written to
// it: the rest reads as zeros, exactly like a block never written. A
// 4 KiB block holding a 200-byte chunk tail therefore costs ~200 bytes,
// not 4 KiB, while every reader (checksums included) still sees the full
// zero-padded block image.
class MemBlockDevice : public BlockDevice {
 public:
  MemBlockDevice(uint64_t capacity_blocks, uint64_t block_size);

  uint64_t capacity_blocks() const override { return capacity_blocks_; }
  uint64_t block_size() const override { return block_size_; }

  Status Write(BlockId start, uint64_t byte_offset, const uint8_t* data,
               size_t len) override;
  Status Read(BlockId start, uint64_t byte_offset, uint8_t* out,
              size_t len) const override;

  // Drops the stored bytes of [start, start + nblocks): the range was
  // freed, and it reads as zeros until written again.
  void Discard(BlockId start, uint64_t nblocks);

  // Number of blocks currently holding bytes.
  uint64_t resident_blocks() const { return blocks_.size(); }
  // Heap bytes reserved for block contents (capacity, not extent).
  uint64_t resident_bytes() const { return resident_bytes_; }

 private:
  uint64_t capacity_blocks_;
  uint64_t block_size_;
  // Each vector's size() is the block's written extent.
  std::unordered_map<BlockId, std::vector<uint8_t>> blocks_;
  uint64_t resident_bytes_ = 0;
  // Op counters only — a memory copy is too cheap to pay two clock reads.
  Counter* m_reads_ = nullptr;
  Counter* m_writes_ = nullptr;
};

}  // namespace duplex::storage

#endif  // DUPLEX_STORAGE_BLOCK_DEVICE_H_
