#include "storage/block_device.h"

#include <algorithm>
#include <cstring>

namespace duplex::storage {

MemBlockDevice::MemBlockDevice(uint64_t capacity_blocks, uint64_t block_size)
    : capacity_blocks_(capacity_blocks), block_size_(block_size) {
  m_reads_ = GlobalCounter("duplex_storage_device_reads_total",
                           "Block-device read ops", "device=\"mem\"");
  m_writes_ = GlobalCounter("duplex_storage_device_writes_total",
                            "Block-device write ops", "device=\"mem\"");
}

Status MemBlockDevice::Write(BlockId start, uint64_t byte_offset,
                             const uint8_t* data, size_t len) {
  const uint64_t abs = start * block_size_ + byte_offset;
  if (abs + len > capacity_blocks_ * block_size_) {
    return Status::OutOfRange("write beyond device end");
  }
  if (m_writes_ != nullptr) m_writes_->Inc();
  uint64_t pos = abs;
  size_t written = 0;
  while (written < len) {
    const BlockId blk = pos / block_size_;
    const uint64_t in_blk = pos % block_size_;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(block_size_ - in_blk, len - written));
    std::vector<uint8_t>& bytes = blocks_[blk];
    const uint64_t extent = in_blk + n;
    if (bytes.size() < extent) {
      if (bytes.capacity() < extent) {
        // Double like a vector would, but never past one block.
        const size_t old_capacity = bytes.capacity();
        bytes.reserve(static_cast<size_t>(std::min<uint64_t>(
            block_size_, std::max<uint64_t>(extent, 2 * old_capacity))));
        resident_bytes_ += bytes.capacity() - old_capacity;
      }
      bytes.resize(static_cast<size_t>(extent), 0);
    }
    std::memcpy(bytes.data() + in_blk, data + written, n);
    pos += n;
    written += n;
  }
  return Status::OK();
}

Status MemBlockDevice::Read(BlockId start, uint64_t byte_offset, uint8_t* out,
                            size_t len) const {
  const uint64_t abs = start * block_size_ + byte_offset;
  if (abs + len > capacity_blocks_ * block_size_) {
    return Status::OutOfRange("read beyond device end");
  }
  if (m_reads_ != nullptr) m_reads_->Inc();
  uint64_t pos = abs;
  size_t done = 0;
  while (done < len) {
    const BlockId blk = pos / block_size_;
    const uint64_t in_blk = pos % block_size_;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(block_size_ - in_blk, len - done));
    // Bytes past the block's written extent read as zeros.
    const auto it = blocks_.find(blk);
    const uint64_t extent = it == blocks_.end() ? 0 : it->second.size();
    const size_t stored = static_cast<size_t>(
        std::min<uint64_t>(n, extent > in_blk ? extent - in_blk : 0));
    if (stored > 0) {
      std::memcpy(out + done, it->second.data() + in_blk, stored);
    }
    std::memset(out + done + stored, 0, n - stored);
    pos += n;
    done += n;
  }
  return Status::OK();
}

void MemBlockDevice::Discard(BlockId start, uint64_t nblocks) {
  for (uint64_t i = 0; i < nblocks; ++i) {
    const auto it = blocks_.find(start + i);
    if (it == blocks_.end()) continue;
    resident_bytes_ -= it->second.capacity();
    blocks_.erase(it);
  }
}

}  // namespace duplex::storage
