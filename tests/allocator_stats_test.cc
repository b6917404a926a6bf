// Coverage for the instrumented Allocator interface (src/allocators/allocator.h): the built-in
// AllocatorStats counters every driver reads instead of keeping its own, the ledger's refusal of
// unknown and double frees on every registry kind, and the memory-stomping detector
// AllocatorBase::Malloc runs on every returned block.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/caching_allocator.h"
#include "src/allocators/live_ledger.h"
#include "src/allocators/native_allocator.h"
#include "src/allocators/registry.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {
namespace {

TEST(AllocatorStats, BytesMovedAccumulate) {
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  auto a = alloc.Malloc(10 * MiB);
  auto b = alloc.Malloc(6 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  alloc.Free(*a);

  const AllocatorStats& s = alloc.stats();
  EXPECT_EQ(s.bytes_allocated_total, 16 * MiB);
  EXPECT_EQ(s.bytes_freed_total, 10 * MiB);
  EXPECT_EQ(s.allocated_current, 6 * MiB);
  EXPECT_EQ(s.live_blocks, 1u);
}

void ExpectSameStats(const AllocatorStats& a, const AllocatorStats& b) {
  EXPECT_EQ(a.allocated_current, b.allocated_current);
  EXPECT_EQ(a.allocated_peak, b.allocated_peak);
  EXPECT_EQ(a.reserved_peak, b.reserved_peak);
  EXPECT_EQ(a.num_mallocs, b.num_mallocs);
  EXPECT_EQ(a.num_frees, b.num_frees);
  EXPECT_EQ(a.num_oom, b.num_oom);
  EXPECT_EQ(a.live_blocks, b.live_blocks);
  EXPECT_EQ(a.bytes_allocated_total, b.bytes_allocated_total);
  EXPECT_EQ(a.bytes_freed_total, b.bytes_freed_total);
}

// An unknown, interior or double Free returns false and mutates nothing, on every kind a fleet
// device can front: the ledger in AllocatorBase::Free refuses it before the policy sees it.
TEST(AllocatorStats, UnknownInteriorAndDoubleFreesMutateNothing) {
  for (const std::string& kind : AllocatorRegistry::Global().Names(/*include_plan_kinds=*/false)) {
    SCOPED_TRACE(kind);
    SimDevice dev(256 * MiB);
    std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(kind, &dev);
    ASSERT_NE(alloc, nullptr);
    std::vector<uint64_t> addrs;
    for (uint64_t size : {4 * KiB, 3 * MiB, 24 * MiB}) {
      const std::optional<uint64_t> addr = alloc->Malloc(size);
      ASSERT_TRUE(addr.has_value()) << size;
      addrs.push_back(*addr);
    }
    // Each refused call leaves the stats (live_blocks included) and the reservation as it found
    // them.
    const auto expect_refused = [&](uint64_t addr, const char* what) {
      SCOPED_TRACE(what);
      const AllocatorStats before = alloc->stats();
      const uint64_t reserved = alloc->ReservedBytes();
      EXPECT_FALSE(alloc->Free(addr));
      ExpectSameStats(alloc->stats(), before);
      EXPECT_EQ(alloc->ReservedBytes(), reserved);
    };
    expect_refused(uint64_t{1} << 62, "never returned");
    expect_refused(addrs[0] + 1, "interior");
    ASSERT_TRUE(alloc->Free(addrs[2]));
    expect_refused(addrs[2], "double");
    EXPECT_EQ(alloc->stats().live_blocks, 2u);

    // The refused frees left the ledger intact: the live blocks still free exactly once.
    EXPECT_TRUE(alloc->Free(addrs[0]));
    EXPECT_TRUE(alloc->Free(addrs[1]));
    EXPECT_EQ(alloc->stats().allocated_current, 0u);
  }
}

// Returns whatever addresses it is scripted to, overlapping or not: the stomping detector in
// AllocatorBase::Malloc is the only thing between a buggy policy and a corrupted ledger.
class ScriptedAllocator final : public AllocatorBase {
 public:
  explicit ScriptedAllocator(std::deque<uint64_t> addresses) : addresses_(std::move(addresses)) {}
  std::string_view name() const override { return "scripted"; }
  uint64_t ReservedBytes() const override { return 0; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t, const RequestContext&) override {
    const uint64_t addr = addresses_.front();
    addresses_.pop_front();
    return addr;
  }
  void DoFree(uint64_t, uint64_t) override {}

 private:
  std::deque<uint64_t> addresses_;
};

TEST(AllocatorStompingDeathTest, AdjacentBlocksAreAccepted) {
  ScriptedAllocator alloc({0x2000, 0x1000, 0x3000});
  ASSERT_TRUE(alloc.Malloc(0x1000).has_value());  // [0x2000, 0x3000)
  ASSERT_TRUE(alloc.Malloc(0x1000).has_value());  // [0x1000, 0x2000): ends at its successor
  ASSERT_TRUE(alloc.Malloc(0x1000).has_value());  // [0x3000, 0x4000): starts at the end above
  EXPECT_EQ(alloc.stats().live_blocks, 3u);
}

TEST(AllocatorStompingDeathTest, BlockOverlappingItsSuccessorAborts) {
  EXPECT_DEATH(
      {
        ScriptedAllocator alloc({0x2000, 0x1800});
        alloc.Malloc(0x1000);  // [0x2000, 0x3000)
        alloc.Malloc(0x1000);  // [0x1800, 0x2800) runs into the block at 0x2000
      },
      "scripted: block \\[6144, 10240\\) stomps on live block at 8192");
}

TEST(AllocatorStompingDeathTest, BlockOverlappingItsPredecessorAborts) {
  EXPECT_DEATH(
      {
        ScriptedAllocator alloc({0x2000, 0x2800});
        alloc.Malloc(0x1000);  // [0x2000, 0x3000)
        alloc.Malloc(0x100);   // starts inside it
      },
      "scripted: block at 10240 stomped by live block \\[8192, 12288\\)");
}

// The ledger keeps live blocks in flat chunks of LiveLedger::kChunkEntries; kChunkEntries + 1
// ascending blocks split the first chunk in half, so blocks [0, kChunkEntries / 2) end chunk 0
// and block kChunkEntries / 2 starts chunk 1. Blocks are 0x1000 wide and 0x2000 apart.
std::deque<uint64_t> TwoChunksThen(uint64_t stray) {
  std::deque<uint64_t> addresses;
  for (size_t k = 0; k <= LiveLedger::kChunkEntries; ++k) {
    addresses.push_back(0x100000 + k * 0x2000);
  }
  addresses.push_back(stray);
  return addresses;
}

TEST(AllocatorStompingDeathTest, BlockOverlappingLastEntryOfPreviousChunkAborts) {
  // Chunk 0's last block is [0x13e000, 0x13f000); the stray starts inside it.
  constexpr uint64_t kLast = 0x100000 + (LiveLedger::kChunkEntries / 2 - 1) * 0x2000;
  static_assert(kLast == 0x13e000, "message below assumes 64-entry chunks");
  EXPECT_DEATH(
      {
        ScriptedAllocator alloc(TwoChunksThen(kLast + 0x800));
        for (size_t k = 0; k <= LiveLedger::kChunkEntries; ++k) {
          alloc.Malloc(0x1000);
        }
        alloc.Malloc(0x100);
      },
      "scripted: block at 1304576 stomped by live block \\[1302528, 1306624\\)");
}

TEST(AllocatorStompingDeathTest, BlockOverlappingFirstEntryOfNextChunkAborts) {
  // Chunk 1's first block starts at 0x140000; the stray starts in the gap before it.
  constexpr uint64_t kFirst = 0x100000 + (LiveLedger::kChunkEntries / 2) * 0x2000;
  static_assert(kFirst == 0x140000, "message below assumes 64-entry chunks");
  EXPECT_DEATH(
      {
        ScriptedAllocator alloc(TwoChunksThen(kFirst - 0x800));
        for (size_t k = 0; k <= LiveLedger::kChunkEntries; ++k) {
          alloc.Malloc(0x1000);
        }
        alloc.Malloc(0x1000);
      },
      "scripted: block \\[1308672, 1312768\\) stomps on live block at 1310720");
}

TEST(AllocatorStats, EfficiencyAndFragmentationDeriveFromPeaks) {
  AllocatorStats s;
  s.allocated_peak = 3 * GiB;
  s.reserved_peak = 4 * GiB;
  EXPECT_DOUBLE_EQ(s.MemoryEfficiency(), 0.75);
  EXPECT_DOUBLE_EQ(s.FragmentationRatio(), 0.25);
  EXPECT_EQ(s.FragmentationBytes(), 1 * GiB);
  AllocatorStats empty;
  EXPECT_DOUBLE_EQ(empty.MemoryEfficiency(), 1.0);
  EXPECT_EQ(empty.FragmentationBytes(), 0u);
}

}  // namespace
}  // namespace stalloc
