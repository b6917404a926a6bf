#include "src/allocators/caching_allocator.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace stalloc {
namespace {

class CachingAllocatorTest : public ::testing::Test {
 protected:
  SimDevice dev_{8 * GiB};
  CachingAllocator alloc_{&dev_};
};

TEST_F(CachingAllocatorTest, RoundSizeMatchesPyTorchRule) {
  EXPECT_EQ(alloc_.pool().RoundSize(1), 512u);
  EXPECT_EQ(alloc_.pool().RoundSize(512), 512u);
  EXPECT_EQ(alloc_.pool().RoundSize(513), 1024u);
  EXPECT_EQ(alloc_.pool().RoundSize(1 * MiB), 1 * MiB);
}

TEST_F(CachingAllocatorTest, SmallRequestReservesSmallBuffer) {
  auto a = alloc_.Malloc(4 * KiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc_.ReservedBytes(), 2 * MiB);  // kSmallBuffer segment
  EXPECT_EQ(alloc_.pool().num_segments(), 1u);
}

TEST_F(CachingAllocatorTest, MidRequestReservesLargeBuffer) {
  auto a = alloc_.Malloc(2 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc_.ReservedBytes(), 20 * MiB);  // kLargeBuffer
}

TEST_F(CachingAllocatorTest, HugeRequestReservesRoundedExact) {
  auto a = alloc_.Malloc(33 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc_.ReservedBytes(), 34 * MiB);  // rounded up to 2 MiB multiple
}

TEST_F(CachingAllocatorTest, FreedBlockIsReused) {
  auto a = alloc_.Malloc(4 * MiB);
  ASSERT_TRUE(a.has_value());
  alloc_.Free(*a);
  auto b = alloc_.Malloc(4 * MiB);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(alloc_.pool().num_segments(), 1u);  // no new segment
}

TEST_F(CachingAllocatorTest, SmallAllocationsPackIntoOneSegment) {
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 4; ++i) {
    auto a = alloc_.Malloc(256 * KiB);
    ASSERT_TRUE(a.has_value());
    addrs.push_back(*a);
  }
  EXPECT_EQ(alloc_.ReservedBytes(), 2 * MiB);  // 4 x 256 KiB fits one small segment
  for (auto a : addrs) {
    EXPECT_TRUE(alloc_.Free(a));
  }
}

TEST_F(CachingAllocatorTest, BestFitPrefersTightestBlock) {
  // Create two cached free blocks: 6 MiB and 3 MiB (in separate segments).
  auto big = alloc_.Malloc(16 * MiB);
  auto small = alloc_.Malloc(12 * MiB);
  ASSERT_TRUE(big.has_value() && small.has_value());
  alloc_.Free(*big);
  alloc_.Free(*small);
  // Request 11 MiB: must come from the 12 MiB block's address, not the 16 MiB one.
  auto c = alloc_.Malloc(11 * MiB);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *small);
}

TEST_F(CachingAllocatorTest, CoalescingMergesNeighbours) {
  // Three adjacent blocks split from one 20 MiB segment.
  auto a = alloc_.Malloc(4 * MiB);
  auto b = alloc_.Malloc(4 * MiB);
  auto c = alloc_.Malloc(4 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(alloc_.pool().num_segments(), 1u);
  alloc_.Free(*a);
  alloc_.Free(*c);
  alloc_.Free(*b);  // merges a+b+c (+ tail) back into one block
  // The whole segment should now be one free block: a 16 MiB request fits in place.
  auto d = alloc_.Malloc(16 * MiB);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, *a);
  EXPECT_EQ(alloc_.pool().num_segments(), 1u);
}

TEST_F(CachingAllocatorTest, EmptyCacheReleasesFreeSegments) {
  auto a = alloc_.Malloc(4 * MiB);
  alloc_.Free(*a);
  EXPECT_GT(alloc_.ReservedBytes(), 0u);
  alloc_.EmptyCache();
  EXPECT_EQ(alloc_.ReservedBytes(), 0u);
  EXPECT_EQ(dev_.physical_used(), 0u);
}

TEST_F(CachingAllocatorTest, EmptyCacheKeepsLiveSegments) {
  auto a = alloc_.Malloc(4 * MiB);
  alloc_.EmptyCache();
  EXPECT_EQ(alloc_.ReservedBytes(), 20 * MiB);
  EXPECT_TRUE(alloc_.Free(*a));
}

TEST_F(CachingAllocatorTest, StatsTrackPeaks) {
  auto a = alloc_.Malloc(4 * MiB);
  auto b = alloc_.Malloc(4 * MiB);
  alloc_.Free(*a);
  alloc_.Free(*b);
  EXPECT_EQ(alloc_.stats().allocated_peak, 8 * MiB);
  EXPECT_EQ(alloc_.stats().allocated_current, 0u);
  EXPECT_EQ(alloc_.stats().num_mallocs, 2u);
  EXPECT_EQ(alloc_.stats().num_frees, 2u);
  EXPECT_LE(alloc_.stats().MemoryEfficiency(), 1.0);
}

TEST_F(CachingAllocatorTest, FreeUnknownAddressReturnsFalse) {
  EXPECT_FALSE(alloc_.Free(0xdeadbeef));
}

TEST(CachingAllocatorOom, ReleasesCacheAndRetries) {
  SimDevice dev(64 * MiB);
  CachingAllocator alloc(&dev);
  // Fill with a 40 MiB block, free it (stays cached), then ask for 60 MiB: the allocator must
  // release the cached segment to satisfy the request.
  auto a = alloc.Malloc(40 * MiB);
  ASSERT_TRUE(a.has_value());
  alloc.Free(*a);
  auto b = alloc.Malloc(60 * MiB);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(alloc.Free(*b));
}

TEST(CachingAllocatorOom, ReportsOomWhenTrulyFull) {
  SimDevice dev(64 * MiB);
  CachingAllocator alloc(&dev);
  auto a = alloc.Malloc(50 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(alloc.Malloc(50 * MiB).has_value());
  EXPECT_EQ(alloc.stats().num_oom, 1u);
}

TEST(CachingAllocatorFragmentation, InterleavedLifetimesFragment) {
  // The Fig. 1(a) scenario: interleave long- and short-lived blocks so freed space is
  // discontiguous; a large request then needs a fresh segment even though total free bytes
  // suffice. This is the fragmentation STAlloc eliminates.
  SimDevice dev(8 * GiB);
  CachingAllocator alloc(&dev);
  std::vector<uint64_t> keep;
  std::vector<uint64_t> drop;
  // 9 pairs: 18 blocks over 20 MiB segments (5 blocks each), so every segment keeps at least
  // one live block and no segment becomes fully free.
  for (int i = 0; i < 9; ++i) {
    auto a = alloc.Malloc(4 * MiB);  // long-lived
    auto b = alloc.Malloc(4 * MiB);  // short-lived
    ASSERT_TRUE(a.has_value() && b.has_value());
    keep.push_back(*a);
    drop.push_back(*b);
  }
  for (auto b : drop) {
    alloc.Free(b);
  }
  const uint64_t reserved_before = alloc.ReservedBytes();
  // Plenty of free bytes exist, but scattered in small holes: a 16 MiB request cannot fit.
  auto big = alloc.Malloc(16 * MiB);
  ASSERT_TRUE(big.has_value());
  EXPECT_GT(alloc.ReservedBytes(), reserved_before);
  EXPECT_LT(alloc.stats().MemoryEfficiency(), 1.0);
  for (auto a : keep) {
    alloc.Free(a);
  }
  alloc.Free(*big);
}

// Property test: random malloc/free storms never corrupt accounting, and everything can always
// be freed back.
class CachingAllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CachingAllocatorPropertyTest, RandomStorm) {
  SimDevice dev(4 * GiB);
  CachingAllocator alloc(&dev);
  Rng rng(GetParam());
  std::vector<uint64_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextBelow(100) < 55) {
      // Mix of small and large requests across the pool boundary.
      const uint64_t size = rng.NextBelow(100) < 50 ? 512 * (1 + rng.NextBelow(2048))
                                                    : MiB * (1 + rng.NextBelow(32));
      auto a = alloc.Malloc(size);
      if (a.has_value()) {
        live.push_back(*a);
      }
    } else {
      const size_t i = rng.NextBelow(live.size());
      ASSERT_TRUE(alloc.Free(live[i]));
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (auto a : live) {
    ASSERT_TRUE(alloc.Free(a));
  }
  EXPECT_EQ(alloc.stats().allocated_current, 0u);
  alloc.EmptyCache();
  EXPECT_EQ(alloc.ReservedBytes(), 0u);
  EXPECT_EQ(dev.physical_used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachingAllocatorPropertyTest,
                         ::testing::Values(1, 7, 13, 99, 12345));

}  // namespace
}  // namespace stalloc
