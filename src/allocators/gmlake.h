// GMLakeAllocator: reimplementation of GMLake (ASPLOS '24), the virtual-memory-stitching
// baseline. GMLake extends the PyTorch caching allocator by backing every large segment
// ("primitive block", pBlock) with a CUDA VMM allocation — a virtual-address reservation plus a
// physical handle — so that, when a large request cannot be served contiguously, the physical
// handles of several *free* pBlocks can be unmapped from their original addresses and re-mapped
// back-to-back into a freshly reserved range ("stitched block", sBlock). Stitching defragments
// without copying data, but each stitch costs unmap+map calls; with a low fragLimit threshold and
// MoE's dynamic sizes this churn is the >50% slowdown the paper reports (§9.2).
//
// Stitching applies only to requests >= frag_limit (default 512 MiB, per the paper).

#ifndef SRC_ALLOCATORS_GMLAKE_H_
#define SRC_ALLOCATORS_GMLAKE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/free_index.h"
#include "src/gpu/sim_device.h"

namespace stalloc {

struct GMLakeConfig {
  uint64_t small_size = 1 * MiB;       // small/large pool boundary
  uint64_t large_buffer = 20 * MiB;    // default pBlock size for mid-size requests
  uint64_t min_large_alloc = 10 * MiB;
  uint64_t frag_limit = 512 * MiB;     // stitching threshold (paper default)
};

class GMLakeAllocator final : public AllocatorBase {
 public:
  explicit GMLakeAllocator(SimDevice* device, GMLakeConfig config = GMLakeConfig{});
  ~GMLakeAllocator() override;

  std::string_view name() const override { return "gmlake"; }
  uint64_t ReservedBytes() const override;
  void EmptyCache() override;
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests / benches.
  uint64_t num_stitches() const { return num_stitches_; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  struct HandlePart {
    MemHandle handle = 0;
    uint64_t size = 0;
  };
  struct Segment {  // a pBlock or an sBlock
    VaPtr va = 0;
    uint64_t size = 0;
    std::vector<HandlePart> handles;  // mapped consecutively from offset 0
    bool stitched = false;
    bool released = false;
    StreamId stream = kComputeStream;
    uint64_t free_bytes = 0;
  };
  struct Block {
    uint64_t addr = 0;  // absolute virtual address
    uint64_t size = 0;
    bool free = true;
    uint32_t segment = 0;
  };
  bool IsSmall(uint64_t size) const {
    return AlignUp(std::max(size, uint64_t{512}), 512) <= config_.small_size;
  }
  uint64_t SegmentSizeFor(uint64_t rounded) const;
  std::optional<uint64_t> LargeMalloc(uint64_t rounded, StreamId stream);
  std::optional<uint64_t> AllocFromCache(uint64_t rounded, StreamId stream);
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, StreamId stream);
  // Stitches fully-free same-stream pBlocks into a new segment holding `rounded`.
  std::optional<uint64_t> AllocByStitching(uint64_t rounded, StreamId stream);
  void SplitBlock(std::map<uint64_t, Block>::iterator it, uint64_t want);
  void Coalesce(std::map<uint64_t, Block>::iterator it);
  // Fully-free, not-released segment ids (optionally restricted to one stream).
  std::vector<uint32_t> FreeSegments() const;
  std::vector<uint32_t> FreeSegmentsOfStream(StreamId stream) const;
  // Unmaps a fully-free segment's handles; optionally releases the physical memory.
  void DismantleSegment(uint32_t seg_id, bool release_physical);
  uint64_t ReleaseCachedSegments();

  SimDevice* device_;
  GMLakeConfig config_;
  CachingPool small_pool_;  // requests <= small_size
  std::vector<Segment> segments_;
  std::map<uint64_t, Block> blocks_;
  std::map<StreamId, BestFitIndex> free_lists_;
  uint64_t reserved_large_ = 0;  // physical bytes held by large segments
  uint64_t num_stitches_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_GMLAKE_H_
