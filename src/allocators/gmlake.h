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
//
// Large blocks are placed through a BlockTable (src/allocators/block_table.h): each pBlock or
// sBlock is one table segment keyed by its stream, split and coalesced by the PyTorch
// large-pool rule. GMLake keeps only what backs a segment — its handle parts and whether it
// was stitched — indexed by segment id.

#ifndef SRC_ALLOCATORS_GMLAKE_H_
#define SRC_ALLOCATORS_GMLAKE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/allocators/block_table.h"
#include "src/allocators/caching_allocator.h"
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
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Introspection for tests / benches.
  uint64_t num_stitches() const { return num_stitches_; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;
  void DoEmptyCache() override;

 private:
  struct HandlePart {
    MemHandle handle = 0;
    uint64_t size = 0;
  };
  struct Backing {  // what maps a pBlock or sBlock, indexed by BlockTable segment id
    std::vector<HandlePart> handles;  // mapped consecutively from offset 0
    bool stitched = false;
  };
  bool IsSmall(uint64_t size) const {
    return AlignUp(std::max(size, uint64_t{512}), 512) <= config_.small_size;
  }
  uint64_t SegmentSizeFor(uint64_t rounded) const;
  // PyTorch large-pool rule: only split off remainders above small_size.
  uint64_t MinSplit() const { return config_.small_size + 1; }
  std::optional<uint64_t> LargeMalloc(uint64_t rounded, StreamId stream);
  std::optional<uint64_t> AllocFromNewSegment(uint64_t rounded, StreamId stream);
  // Stitches fully-free same-stream pBlocks into a new segment holding `rounded`.
  std::optional<uint64_t> AllocByStitching(uint64_t rounded, StreamId stream);
  // Adds a segment over `va` backed by `parts` and takes `rounded` bytes at its start.
  uint64_t AddSegmentAndTake(VaPtr va, std::vector<HandlePart> parts, bool stitched,
                             StreamId stream, uint64_t rounded);
  // Fully-free, not-released segment ids (optionally restricted to one stream).
  std::vector<uint32_t> FreeSegments() const;
  std::vector<uint32_t> FreeSegmentsOfStream(StreamId stream) const;
  // Unmaps a fully-free segment's handles; optionally releases the physical memory.
  void DismantleSegment(uint32_t seg_id, bool release_physical);
  uint64_t ReleaseCachedSegments();

  SimDevice* device_;
  GMLakeConfig config_;
  CachingPool small_pool_;  // requests <= small_size
  BlockTable table_;        // large blocks; one segment per pBlock/sBlock, keyed by stream
  std::vector<Backing> backing_;  // per table segment
  uint64_t reserved_large_ = 0;  // physical bytes held by large segments
  uint64_t num_stitches_ = 0;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_GMLAKE_H_
