#include "storage/disk_array.h"

#include <gtest/gtest.h>

#include <string>

namespace duplex::storage {
namespace {

DiskArrayOptions SmallArray(uint32_t disks = 4, uint64_t blocks = 64) {
  DiskArrayOptions o;
  o.num_disks = disks;
  o.blocks_per_disk = blocks;
  return o;
}

TEST(DiskArrayTest, RoundRobinCyclesThroughDisks) {
  DiskArray array(SmallArray(3));
  // Paper: disk i+1 mod n, with i initially 0 -> first choice is disk 1.
  EXPECT_EQ(array.NextDisk(), 1u);
  EXPECT_EQ(array.NextDisk(), 2u);
  EXPECT_EQ(array.NextDisk(), 0u);
  EXPECT_EQ(array.NextDisk(), 1u);
}

TEST(DiskArrayTest, AllocateUsesRoundRobin) {
  DiskArray array(SmallArray(2));
  Result<BlockRange> a = array.Allocate(4);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->disk, 1u);
  Result<BlockRange> b = array.Allocate(4);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->disk, 0u);
}

TEST(DiskArrayTest, AllocateOnSpecificDisk) {
  DiskArray array(SmallArray());
  Result<BlockRange> r = array.AllocateOn(2, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->disk, 2u);
  EXPECT_EQ(r->start, 0u);
  EXPECT_EQ(r->length, 8u);
  EXPECT_EQ(array.used_blocks(2), 8u);
  EXPECT_EQ(array.used_blocks(0), 0u);
}

TEST(DiskArrayTest, FallsBackWhenChosenDiskFull) {
  DiskArray array(SmallArray(2, 16));
  ASSERT_TRUE(array.AllocateOn(1, 16).ok());  // fill disk 1
  // Round-robin picks disk 1 next (cursor starts at 0) but it is full;
  // allocation must fall back to disk 0 instead of failing.
  Result<BlockRange> r = array.Allocate(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->disk, 0u);
}

TEST(DiskArrayTest, ExhaustionWhenAllFull) {
  DiskArray array(SmallArray(2, 16));
  ASSERT_TRUE(array.AllocateOn(0, 16).ok());
  ASSERT_TRUE(array.AllocateOn(1, 16).ok());
  Result<BlockRange> r = array.Allocate(1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(DiskArrayTest, FreeReturnsBlocks) {
  DiskArray array(SmallArray());
  Result<BlockRange> r = array.Allocate(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(array.total_used_blocks(), 8u);
  ASSERT_TRUE(array.Free(*r).ok());
  EXPECT_EQ(array.total_used_blocks(), 0u);
  EXPECT_EQ(array.total_free_blocks(), 4 * 64u);
}

// Free() failures are typed — the compactor frees chunks on its hot path
// and must recover from a corrupt directory entry instead of aborting.

TEST(DiskArrayTest, DoubleFreeIsTypedCorruption) {
  DiskArray array(SmallArray());
  Result<BlockRange> r = array.Allocate(8);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(array.Free(*r).ok());
  const Status again = array.Free(*r);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kCorruption);
}

TEST(DiskArrayTest, FreeOfUnallocatedOverlapIsTypedCorruption) {
  DiskArray array(SmallArray(1, 64));
  Result<BlockRange> r = array.AllocateOn(0, 8);
  ASSERT_TRUE(r.ok());
  // [8, 16) was never allocated; freeing it overlaps the free tail.
  const Status s = array.Free(BlockRange{0, 8, 8});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(DiskArrayTest, FreeBeyondDiskEndIsTypedInvalidArgument) {
  DiskArray array(SmallArray(1, 64));
  const Status s = array.Free(BlockRange{0, 60, 8});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DiskArrayTest, FreeOnUnknownDiskIsTypedInvalidArgument) {
  DiskArray array(SmallArray(2));
  const Status s = array.Free(BlockRange{7, 0, 4});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DiskArrayTest, FreeOfEmptyRangeIsTypedInvalidArgument) {
  DiskArray array(SmallArray());
  const Status s = array.Free(BlockRange{0, 0, 0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DiskArrayTest, FailedFreeLeavesAccountingIntact) {
  DiskArray array(SmallArray(1, 64));
  Result<BlockRange> a = array.AllocateOn(0, 8);
  ASSERT_TRUE(a.ok());
  ASSERT_FALSE(array.Free(BlockRange{0, 32, 8}).ok());  // not allocated
  EXPECT_EQ(array.used_blocks(0), 8u);
  ASSERT_TRUE(array.Free(*a).ok());  // the real range still frees cleanly
  EXPECT_EQ(array.used_blocks(0), 0u);
}

TEST(DiskArrayTest, MostFreeStrategyBalances) {
  DiskArrayOptions o = SmallArray(3);
  o.disk_choice = DiskChoice::kMostFree;
  DiskArray array(o);
  ASSERT_TRUE(array.AllocateOn(0, 30).ok());
  ASSERT_TRUE(array.AllocateOn(1, 10).ok());
  // Disk 2 is emptiest.
  EXPECT_EQ(array.NextDisk(), 2u);
}

TEST(DiskArrayTest, DevicesOnlyWhenMaterialized) {
  DiskArray plain(SmallArray());
  EXPECT_EQ(plain.device(0), nullptr);
  DiskArrayOptions o = SmallArray();
  o.materialize_payloads = true;
  DiskArray mat(o);
  EXPECT_NE(mat.device(0), nullptr);
  EXPECT_EQ(mat.device(0)->block_size(), o.block_size_bytes);
}

TEST(DiskArrayTest, FragmentCountTracksHoles) {
  DiskArray array(SmallArray(1, 64));
  Result<BlockRange> a = array.AllocateOn(0, 8);
  Result<BlockRange> b = array.AllocateOn(0, 8);
  Result<BlockRange> c = array.AllocateOn(0, 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(array.Free(*a).ok());
  ASSERT_TRUE(array.Free(*c).ok());
  EXPECT_EQ(array.fragment_count(0), 2u);  // [0,8) and [16,64)
}

TEST(DiskArrayTest, FreeDropsTheRangesBytes) {
  DiskArrayOptions o = SmallArray(1, 64);
  o.block_size_bytes = 16;
  o.materialize_payloads = true;
  o.checksums = true;
  DiskArray array(o);
  Result<BlockRange> kept = array.AllocateOn(0, 2);
  Result<BlockRange> freed = array.AllocateOn(0, 2);
  ASSERT_TRUE(kept.ok() && freed.ok());
  const std::string bytes(32, 'q');
  for (const BlockRange& r : {*kept, *freed}) {
    ASSERT_TRUE(array.device(0)
                    ->Write(r.start, 0,
                            reinterpret_cast<const uint8_t*>(bytes.data()),
                            bytes.size())
                    .ok());
  }
  EXPECT_EQ(array.base_device(0)->resident_blocks(), 4u);

  ASSERT_TRUE(array.Free(*freed).ok());
  // Memory follows the live chunks: only the kept range stays resident,
  // and the freed one reads as zeros through the whole device stack.
  EXPECT_EQ(array.base_device(0)->resident_blocks(), 2u);
  std::string out(32, 'x');
  ASSERT_TRUE(array.device(0)
                  ->Read(freed->start, 0,
                         reinterpret_cast<uint8_t*>(out.data()), out.size())
                  .ok());
  EXPECT_EQ(out, std::string(32, '\0'));
  ASSERT_TRUE(array.device(0)
                  ->Read(kept->start, 0,
                         reinterpret_cast<uint8_t*>(out.data()), out.size())
                  .ok());
  EXPECT_EQ(out, bytes);
  // A rejected free (double free) leaves whatever is stored alone.
  EXPECT_FALSE(array.Free(*freed).ok());
  EXPECT_EQ(array.base_device(0)->resident_blocks(), 2u);
}

}  // namespace
}  // namespace duplex::storage
