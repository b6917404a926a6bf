// CachingAllocator: a faithful reimplementation of the PyTorch CUDA caching allocator's
// block-management policy (c10::cuda::CUDACachingAllocator), the main baseline of the paper.
//
// Policy summary (matching the upstream constants):
//   * request sizes round up to 512 B (kMinBlockSize);
//   * requests <= 1 MiB (kSmallSize) are served from the small pool, whose segments are 2 MiB
//     (kSmallBuffer); larger requests use the large pool: segments of 20 MiB (kLargeBuffer) for
//     requests < 10 MiB (kMinLargeAlloc), else the request rounded up to 2 MiB (kRoundLarge);
//   * free blocks are kept per (pool, stream) — a freed block is only reusable by requests on
//     the stream that allocated it, as in PyTorch — and selected best-fit (smallest sufficient
//     block, then lowest address);
//   * an oversized block is split when the remainder is >= 512 B (small pool) or > 1 MiB (large
//     pool); the remainder stays cached;
//   * on device OOM the allocator releases all fully-free cached segments (cudaFree) and retries
//     once; only then does the request fail;
//   * freed blocks coalesce with free neighbours within the same segment.
//
// This is the "online best-fit without lifespan knowledge" policy whose fragmentation behaviour
// §2.2 analyses.
//
// CachingPool is the policy, not an allocator: no ledger, stats or telemetry. CachingAllocator
// is AllocatorBase over one CachingPool; STAlloc, GMLake, expandable segments and VMM embed a
// CachingPool, so each block sits in exactly one ledger, its owner's.
//
// The blocks themselves live in a BlockTable (src/allocators/block_table.h), the same table
// GMLake, expandable segments and VMM place their large blocks through: CachingPool supplies
// only the PyTorch sizes — rounding, segment sizes, the split rule and the pool key — and the
// device calls.

#ifndef SRC_ALLOCATORS_CACHING_ALLOCATOR_H_
#define SRC_ALLOCATORS_CACHING_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/allocators/block_table.h"
#include "src/common/units.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct CachingAllocatorConfig {
  uint64_t min_block_size = 512;          // kMinBlockSize
  uint64_t small_size = 1 * MiB;          // kSmallSize: boundary between pools
  uint64_t small_buffer = 2 * MiB;        // kSmallBuffer: small-pool segment size
  uint64_t large_buffer = 20 * MiB;       // kLargeBuffer: default large-pool segment size
  uint64_t min_large_alloc = 10 * MiB;    // kMinLargeAlloc: above this, segments fit the request
  uint64_t round_large = 2 * MiB;         // kRoundLarge: rounding for big segments
};

// The PyTorch caching policy over one device: segments, per-(pool, stream) free lists,
// split/coalesce and the release-and-retry OOM protocol. It records no live blocks of its own.
class CachingPool {
 public:
  explicit CachingPool(SimDevice* device,
                       CachingAllocatorConfig config = CachingAllocatorConfig{});
  ~CachingPool();
  CachingPool(const CachingPool&) = delete;
  CachingPool& operator=(const CachingPool&) = delete;

  // Serves `size` (> 0) bytes on `stream`: cached block first, then a fresh segment, then
  // release-all-free-segments and retry once. nullopt when the device is truly full.
  std::optional<uint64_t> Malloc(uint64_t size, StreamId stream);
  // Returns a block served by Malloc. The owner's ledger vouches for `addr`; an address this
  // pool does not hold live aborts.
  void Free(uint64_t addr);

  uint64_t ReservedBytes() const { return reserved_; }
  // Releases all fully-free segments back to the device; returns the bytes released.
  uint64_t EmptyCache();
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const;

  // Introspection for tests.
  size_t num_segments() const { return table_.num_segments(); }
  uint64_t cached_free_bytes() const;
  // Rounded request size per the PyTorch rounding rule (exposed for tests).
  uint64_t RoundSize(uint64_t size) const;

 private:
  bool IsSmall(uint64_t rounded) const { return rounded <= config_.small_size; }
  uint64_t SegmentSizeFor(uint64_t rounded) const;
  // PyTorch segregates cached blocks by (pool, stream): one BlockTable free list per pair.
  static uint64_t PoolKey(bool small, StreamId stream) {
    return uint64_t{stream} << 1 | static_cast<uint64_t>(small);
  }
  // PyTorch should_split: the small pool splits any >= kMinBlockSize remainder, the large pool
  // only remainders above kSmallSize (1 MiB) to limit large-pool fragmentation.
  uint64_t MinSplit(bool small) const {
    return small ? config_.min_block_size : config_.small_size + 1;
  }
  // Allocates a fresh segment from the device and serves from it.
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, bool small, StreamId stream);

  SimDevice* device_;
  CachingAllocatorConfig config_;
  BlockTable table_;
  uint64_t reserved_ = 0;
};

// The "torch-caching" baseline: the PyTorch caching policy behind AllocatorBase's ledger.
class CachingAllocator final : public AllocatorBase {
 public:
  explicit CachingAllocator(SimDevice* device,
                            CachingAllocatorConfig config = CachingAllocatorConfig{})
      : pool_(device, config) {}

  std::string_view name() const override { return "torch-caching"; }
  uint64_t ReservedBytes() const override { return pool_.ReservedBytes(); }
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override {
    pool_.AppendHeapSegments(out);
  }

  const CachingPool& pool() const { return pool_; }  // introspection for tests

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override {
    return pool_.Malloc(size, ctx.stream);
  }
  void DoFree(uint64_t addr, uint64_t /*size*/) override { pool_.Free(addr); }
  void DoEmptyCache() override { pool_.EmptyCache(); }

 private:
  CachingPool pool_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_CACHING_ALLOCATOR_H_
