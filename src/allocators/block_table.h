// BlockTable: the one address-ordered block table behind every caching-style allocator — the
// PyTorch caching pool (CachingPool), GMLake's large pool, expandable segments and VMM.
//
// All four reduce to the same algorithm: a segment is an address range tiled by blocks; a
// request takes the best-fit free block (smallest sufficient size, then lowest address) of its
// pool, splits off the remainder when the remainder is large enough, and a freed block
// coalesces with its free neighbours inside its segment. Only the inputs differ:
//   * the pool key of a segment selects the free list a request searches — (small, stream) for
//     the caching pool, the stream for GMLake and expandable segments, one list for VMM;
//   * the minimum split remainder is a plain integer passed with each take — >= 512 for the
//     caching small pool, expandable segments and VMM, > 1 MiB for the caching large pool and
//     GMLake;
//   * segments either stay fixed (caching segments, GMLake pBlocks/sBlocks, the VMM
//     reservation) or grow and shrink at the tail (one stream's expandable VA range).
// What the device holds behind a segment — cudaMalloc'd memory, stitched handle parts, granule
// handles, per-page references — is the owning allocator's, indexed by segment id.
//
// Block records live in a slot pool threaded into per-segment doubly-linked lists in address
// order (as in upstream PyTorch), with a hash map from address to slot and one size-bucketed
// BestFitIndex (src/allocators/free_index.h) per pool key: no op walks an ordered tree besides
// the BestFitIndex size lookup. Segment ids are never reused, so iterating ids visits segments
// in creation order.

#ifndef SRC_ALLOCATORS_BLOCK_TABLE_H_
#define SRC_ALLOCATORS_BLOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/allocators/free_index.h"

namespace stalloc {

class BlockTable {
 public:
  static constexpr uint32_t kNoBlock = ~uint32_t{0};

  struct Block {
    uint64_t addr = 0;
    uint64_t size = 0;
    bool free = true;
    uint32_t segment = 0;      // owning segment id
    uint32_t prev = kNoBlock;  // address-ordered neighbours within the segment
    uint32_t next = kNoBlock;
  };
  struct Segment {
    uint64_t base = 0;
    uint64_t size = 0;         // bytes tiled by the segment's blocks
    uint64_t key = 0;          // pool key: selects the free list
    uint64_t free_bytes = 0;   // sum of the segment's free block bytes
    bool dropped = false;
    uint32_t list = 0;         // index of the key's free list
    uint32_t last = kNoBlock;  // highest-addressed block; kNoBlock while size == 0
    bool fully_free() const { return !dropped && free_bytes == size; }
  };
  // What Release freed: the block's segment and its size before coalescing.
  struct Released {
    uint32_t segment = 0;
    uint64_t size = 0;
  };

  // Adds the segment [base, base + size) under pool `key`, as one free block (no block when
  // size == 0). Returns its id.
  uint32_t AddSegment(uint64_t base, uint64_t size, uint64_t key);
  // Takes the best-fit free block of pool `key` for `size` bytes and returns its address;
  // nullopt when no free block of the pool is large enough. A remainder of at least
  // `min_split` bytes is split off and stays free.
  std::optional<uint64_t> Take(uint64_t key, uint64_t size, uint64_t min_split);
  // Takes the free block starting at `addr` (e.g. a segment just added), splitting as Take.
  void TakeAt(uint64_t addr, uint64_t size, uint64_t min_split);
  // Frees the taken block at `addr` and coalesces it with free neighbours in its segment. An
  // address that is not a taken block aborts.
  Released Release(uint64_t addr);
  // Drops a fully-free segment: its one free block leaves the table.
  void DropSegment(uint32_t seg);
  // Extends a segment by `bytes` at its tail: the free tail block grows, or a new one opens.
  void GrowTail(uint32_t seg, uint64_t bytes);
  // Cuts a segment back to `new_size` bytes. Only its free tail block may be cut into.
  void ShrinkTail(uint32_t seg, uint64_t new_size);
  // Size of the segment's free tail block; 0 when the tail block is taken or there is none.
  uint64_t TailFree(uint32_t seg) const;

  size_t num_segments() const { return segments_.size(); }
  const Segment& segment(uint32_t seg) const { return segments_[seg]; }
  // Visits the blocks of a segment in address order (introspection for tests).
  template <typename Fn>
  void ForEachBlock(uint32_t seg, Fn fn) const {
    const Segment& s = segments_[seg];
    if (s.dropped || s.size == 0) {
      return;
    }
    for (uint32_t slot = FindBlock(s.base); slot != kNoBlock; slot = blocks_[slot].next) {
      fn(blocks_[slot]);
    }
  }

 private:
  uint32_t NewBlockSlot();
  void ReleaseBlockSlot(uint32_t slot) { free_slots_.push_back(slot); }
  uint32_t FindBlock(uint64_t addr) const;
  // Index of `key`'s free list, or lists_.size() if the key has none yet.
  size_t FindList(uint64_t key) const;
  // Marks the free block `slot` taken and splits off a remainder of at least `min_split`.
  void TakeSlot(uint32_t slot, uint64_t size, uint64_t min_split);
  void Coalesce(uint32_t slot);

  std::vector<Block> blocks_;        // slot pool; free slots recycled via free_slots_
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint64_t, uint32_t> by_addr_;  // block address -> slot
  std::vector<Segment> segments_;
  // One free list per pool key; the keys are few (pools x streams), so a flat scan finds one.
  std::vector<uint64_t> list_keys_;
  std::vector<BestFitIndex> lists_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_BLOCK_TABLE_H_
