// Coverage for the instrumented Allocator interface (src/allocators/allocator.h): the built-in
// AllocatorStats counters (bytes moved, per-op latency) and the AllocatorStatsHook per-op
// observer — the instrumentation every driver now reads instead of keeping its own counters —
// and the memory-stomping detector AllocatorBase::Malloc runs on every returned block.

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/allocator.h"
#include "src/allocators/caching_allocator.h"
#include "src/allocators/native_allocator.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {
namespace {

class RecordingHook : public AllocatorStatsHook {
 public:
  struct Op {
    char kind;  // 'm', 'f', 'o'
    uint64_t size;
    double latency_us;
    AllocatorSnapshot after;
  };
  void OnMalloc(uint64_t size, double latency_us, const AllocatorSnapshot& after) override {
    ops.push_back({'m', size, latency_us, after});
  }
  void OnFree(uint64_t size, double latency_us, const AllocatorSnapshot& after) override {
    ops.push_back({'f', size, latency_us, after});
  }
  void OnOom(uint64_t size, const AllocatorSnapshot& at) override {
    ops.push_back({'o', size, 0, at});
  }
  std::vector<Op> ops;
};

TEST(AllocatorStats, BytesMovedAccumulateWithoutAHook) {
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
  // Latency measurement stays off while nobody listens.
  EXPECT_EQ(s.malloc_latency_us, 0.0);
  EXPECT_EQ(s.free_latency_us, 0.0);
}

TEST(AllocatorStats, HookSeesEveryOpWithConsistentSnapshots) {
  SimDevice dev(1 * GiB);
  CachingAllocator alloc(&dev);
  RecordingHook hook;
  alloc.SetStatsHook(&hook);

  auto a = alloc.Malloc(8 * MiB);
  auto b = alloc.Malloc(3 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  alloc.Free(*a);
  alloc.Free(*b);

  ASSERT_EQ(hook.ops.size(), 4u);
  EXPECT_EQ(hook.ops[0].kind, 'm');
  EXPECT_EQ(hook.ops[0].size, 8 * MiB);
  EXPECT_EQ(hook.ops[0].after.allocated, 8 * MiB);
  EXPECT_EQ(hook.ops[1].after.allocated, 11 * MiB);
  EXPECT_EQ(hook.ops[2].kind, 'f');
  EXPECT_EQ(hook.ops[2].after.allocated, 3 * MiB);
  EXPECT_EQ(hook.ops[3].after.allocated, 0u);
  for (size_t i = 0; i < hook.ops.size(); ++i) {
    EXPECT_GE(hook.ops[i].latency_us, 0.0) << i;
    EXPECT_EQ(hook.ops[i].after.op_index, i + 1) << i;
    EXPECT_GE(hook.ops[i].after.reserved, hook.ops[i].after.allocated) << i;
    EXPECT_GE(hook.ops[i].after.Fragmentation(), 0.0) << i;
  }
  // While the hook is installed, per-op wall time accumulates into the shared stats.
  EXPECT_GT(alloc.stats().malloc_latency_us, 0.0);
  EXPECT_GT(alloc.stats().free_latency_us, 0.0);
}

TEST(AllocatorStats, HookObservesOomAndClearingStopsDelivery) {
  SimDevice dev(16 * MiB);
  NativeAllocator alloc(&dev);
  RecordingHook hook;
  alloc.SetStatsHook(&hook);

  EXPECT_FALSE(alloc.Malloc(64 * MiB).has_value());
  ASSERT_EQ(hook.ops.size(), 1u);
  EXPECT_EQ(hook.ops[0].kind, 'o');
  EXPECT_EQ(hook.ops[0].size, 64 * MiB);
  EXPECT_EQ(alloc.stats().num_oom, 1u);

  alloc.SetStatsHook(nullptr);
  auto a = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a.has_value());
  alloc.Free(*a);
  EXPECT_EQ(hook.ops.size(), 1u);  // no further deliveries after the hook is cleared
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
