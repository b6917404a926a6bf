// ExpandableSegmentsAllocator: reimplementation of PyTorch's `expandable_segments:True` mode
// (the "PyTorch ES" baseline, available since PyTorch 2.1).
//
// Instead of many fixed cudaMalloc segments, large-pool memory lives in expandable segments —
// one per CUDA stream, as in PyTorch: a big virtual-address reservation into which physical
// memory is mapped at 2 MiB granularity as the high-water mark grows. Because all large blocks
// of a stream share one contiguous virtual range, freed holes can be reused by requests of any
// size — that is the defragmentation benefit. The costs are (1) VMM API traffic: growing maps
// granule handles, trimming unmaps them, each call carrying a synchronization penalty (the
// paper's ES throughput regression under recompute churn, §9.2/§9.3), and (2) per-stream
// isolation: a stream's mapped memory is not reusable by other streams.
//
// Small requests (<= 1 MiB) use an embedded classic caching small pool, as in PyTorch.
//
// Large blocks are placed through a BlockTable (src/allocators/block_table.h): each stream's
// mapped prefix [va, va + mapped) is one table segment keyed by the stream, which grows and
// shrinks at its tail as granules are mapped and unmapped. The allocator keeps only the
// reservation and the granule handles behind it.

#ifndef SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_
#define SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/allocators/block_table.h"
#include "src/allocators/caching_allocator.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct ExpandableSegmentsConfig {
  uint64_t small_size = 1 * MiB;  // boundary below which the classic small pool serves
  // When the free tail of a segment exceeds this, trailing granules are unmapped. PyTorch is
  // lazy: it unmaps only under memory pressure or on empty_cache — hence the "never" default.
  // Pressure-driven trimming still happens regardless (Grow retries after trimming all
  // streams), which is where the paper's ES map/unmap churn comes from on near-full devices.
  uint64_t trim_threshold = ~uint64_t{0};
  // Size of each stream's virtual reservation. 0 = device capacity (rounded to granularity).
  uint64_t va_size = 0;
};

class ExpandableSegmentsAllocator final : public AllocatorBase {
 public:
  ExpandableSegmentsAllocator(SimDevice* device,
                              ExpandableSegmentsConfig config = ExpandableSegmentsConfig{});
  ~ExpandableSegmentsAllocator() override;

  std::string_view name() const override { return "torch-expandable"; }
  uint64_t ReservedBytes() const override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests: mapped bytes across all stream segments.
  uint64_t mapped_bytes() const;

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;
  // Returns the small pool's free segments and unmaps every stream's free tail.
  void DoEmptyCache() override;

 private:
  // Per-stream expandable segment state.
  struct StreamSegment {
    VaPtr va = 0;
    uint64_t va_size = 0;
    uint32_t table_seg = 0;             // BlockTable segment: the mapped prefix of the range
    std::vector<MemHandle> granules;    // handle mapped at granule i of the mapped prefix
  };

  bool IsSmall(uint64_t size) const {
    return AlignUp(std::max(size, uint64_t{512}), 512) <= config_.small_size;
  }
  StreamSegment& SegmentFor(StreamId stream);
  // Bytes mapped at the start of the stream's range (granularity-aligned frontier).
  uint64_t MappedEnd(const StreamSegment& seg) const {
    return table_.segment(seg.table_seg).size;
  }
  std::optional<uint64_t> LargeMalloc(StreamId stream, uint64_t rounded);
  // Grows the mapped frontier by `bytes` (granularity-rounded). Returns false on device OOM.
  bool Grow(StreamSegment& seg, uint64_t bytes);
  // When the free tail block is at least `threshold` bytes, unmaps the fully-free granules at
  // the mapped frontier down to the tail block's start.
  void TrimTail(StreamSegment& seg, uint64_t threshold);
  void ReleaseSegment(StreamSegment& seg);

  SimDevice* device_;
  ExpandableSegmentsConfig config_;
  CachingPool small_pool_;  // requests <= small_size
  BlockTable table_;        // large blocks; one segment per stream
  std::map<StreamId, StreamSegment> streams_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_EXPANDABLE_SEGMENTS_H_
