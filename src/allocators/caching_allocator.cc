#include "src/allocators/caching_allocator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/check.h"

namespace stalloc {

CachingPool::CachingPool(SimDevice* device, CachingAllocatorConfig config)
    : device_(device), config_(config) {
  STALLOC_CHECK(IsPowerOfTwo(config_.min_block_size));
}

CachingPool::~CachingPool() {
  // Return every segment to the device so a shared SimDevice's accounting stays clean.
  for (auto& seg : segments_) {
    if (!seg.released) {
      device_->DevFree(seg.base);
    }
  }
}

uint64_t CachingPool::RoundSize(uint64_t size) const {
  if (size < config_.min_block_size) {
    return config_.min_block_size;
  }
  return AlignUp(size, config_.min_block_size);
}

uint64_t CachingPool::SegmentSizeFor(uint64_t rounded) const {
  if (IsSmall(rounded)) {
    return config_.small_buffer;
  }
  if (rounded < config_.min_large_alloc) {
    return config_.large_buffer;
  }
  return AlignUp(rounded, config_.round_large);
}

uint32_t CachingPool::NewBlockSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  blocks_.emplace_back();
  return static_cast<uint32_t>(blocks_.size() - 1);
}

void CachingPool::ReleaseBlockSlot(uint32_t slot) { free_slots_.push_back(slot); }

uint32_t CachingPool::FindBlock(uint64_t addr) const {
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? kNoBlock : it->second;
}

std::optional<uint64_t> CachingPool::AllocFromCache(uint64_t rounded, bool small,
                                                    StreamId stream) {
  auto best = FreeListFor(small, stream).PopBestFit(rounded);
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint64_t addr = best->second;
  const uint32_t slot = FindBlock(addr);
  STALLOC_CHECK(slot != kNoBlock && blocks_[slot].free);
  blocks_[slot].free = false;
  segments_[blocks_[slot].segment].free_bytes -= blocks_[slot].size;
  SplitBlock(slot, rounded);
  return addr;
}

void CachingPool::SplitBlock(uint32_t slot, uint64_t want) {
  Block& block = blocks_[slot];
  STALLOC_CHECK_GE(block.size, want);
  const uint64_t remainder = block.size - want;
  const Segment& seg = segments_[block.segment];
  const bool small = seg.small;
  // PyTorch should_split: small pool splits any >= kMinBlockSize remainder, large pool only
  // splits when the remainder exceeds kSmallSize (1 MiB) to limit large-pool fragmentation.
  const bool split = small ? remainder >= config_.min_block_size : remainder > config_.small_size;
  if (!split) {
    return;
  }
  const uint32_t rest_slot = NewBlockSlot();
  Block& b = blocks_[slot];  // re-fetch: NewBlockSlot may reallocate the pool
  b.size = want;
  Block& rest = blocks_[rest_slot];
  rest.addr = b.addr + want;
  rest.size = remainder;
  rest.free = true;
  rest.segment = b.segment;
  // Link the remainder right after the block in the segment's address-ordered list.
  rest.prev = slot;
  rest.next = b.next;
  if (b.next != kNoBlock) {
    blocks_[b.next].prev = rest_slot;
  }
  b.next = rest_slot;
  by_addr_.emplace(rest.addr, rest_slot);
  segments_[rest.segment].free_bytes += remainder;
  FreeListFor(small, seg.stream).Insert(remainder, rest.addr);
}

std::optional<uint64_t> CachingPool::AllocFromNewSegment(uint64_t rounded, bool small,
                                                         StreamId stream) {
  const uint64_t seg_size = SegmentSizeFor(rounded);
  auto base = device_->DevMalloc(seg_size);
  if (!base.has_value()) {
    // Device OOM: release cached fully-free segments, then retry once (PyTorch behaviour).
    if (EmptyCache() == 0) {
      return std::nullopt;
    }
    base = device_->DevMalloc(seg_size);
    if (!base.has_value()) {
      return std::nullopt;
    }
  }
  Segment seg;
  seg.base = *base;
  seg.size = seg_size;
  seg.small = small;
  seg.stream = stream;
  segments_.push_back(seg);
  reserved_ += seg_size;
  const uint32_t seg_id = static_cast<uint32_t>(segments_.size() - 1);

  const uint32_t slot = NewBlockSlot();
  Block& block = blocks_[slot];
  block.addr = *base;
  block.size = seg_size;
  block.free = false;
  block.segment = seg_id;
  block.prev = kNoBlock;
  block.next = kNoBlock;
  const bool inserted = by_addr_.emplace(block.addr, slot).second;
  STALLOC_CHECK(inserted);
  SplitBlock(slot, rounded);
  return *base;
}

std::optional<uint64_t> CachingPool::Malloc(uint64_t size, StreamId stream) {
  const uint64_t rounded = RoundSize(size);
  const bool small = IsSmall(rounded);
  if (auto addr = AllocFromCache(rounded, small, stream); addr.has_value()) {
    return addr;
  }
  return AllocFromNewSegment(rounded, small, stream);
}

void CachingPool::Free(uint64_t addr) {
  const uint32_t slot = FindBlock(addr);
  STALLOC_CHECK(slot != kNoBlock && !blocks_[slot].free,
                << "caching pool: free of unknown block " << addr);
  blocks_[slot].free = true;
  segments_[blocks_[slot].segment].free_bytes += blocks_[slot].size;
  Coalesce(slot);
}

void CachingPool::Coalesce(uint32_t slot) {
  Block& block = blocks_[slot];
  const uint32_t seg_id = block.segment;
  auto& free_list = FreeListFor(segments_[seg_id].small, segments_[seg_id].stream);

  // Merge with the next block if free (list neighbours are contiguous within the segment).
  const uint32_t next = block.next;
  if (next != kNoBlock && blocks_[next].free) {
    STALLOC_DCHECK_EQ(block.addr + block.size, blocks_[next].addr);
    free_list.Erase(blocks_[next].size, blocks_[next].addr);
    by_addr_.erase(blocks_[next].addr);
    block.size += blocks_[next].size;
    block.next = blocks_[next].next;
    if (block.next != kNoBlock) {
      blocks_[block.next].prev = slot;
    }
    ReleaseBlockSlot(next);
  }
  // Merge with the previous block.
  uint32_t merged = slot;
  const uint32_t prev = block.prev;
  if (prev != kNoBlock && blocks_[prev].free) {
    STALLOC_DCHECK_EQ(blocks_[prev].addr + blocks_[prev].size, block.addr);
    free_list.Erase(blocks_[prev].size, blocks_[prev].addr);
    by_addr_.erase(block.addr);
    blocks_[prev].size += block.size;
    blocks_[prev].next = block.next;
    if (block.next != kNoBlock) {
      blocks_[block.next].prev = prev;
    }
    ReleaseBlockSlot(slot);
    merged = prev;
  }
  free_list.Insert(blocks_[merged].size, blocks_[merged].addr);
}

uint64_t CachingPool::EmptyCache() {
  uint64_t released = 0;
  for (uint32_t seg_id = 0; seg_id < segments_.size(); ++seg_id) {
    Segment& seg = segments_[seg_id];
    if (seg.released || seg.free_bytes != seg.size) {
      continue;
    }
    // The segment is one fully-free block (coalescing guarantees it); drop it.
    const uint32_t slot = FindBlock(seg.base);
    STALLOC_CHECK(slot != kNoBlock && blocks_[slot].free && blocks_[slot].size == seg.size);
    STALLOC_CHECK(blocks_[slot].prev == kNoBlock && blocks_[slot].next == kNoBlock);
    FreeListFor(seg.small, seg.stream).Erase(blocks_[slot].size, blocks_[slot].addr);
    by_addr_.erase(seg.base);
    ReleaseBlockSlot(slot);
    device_->DevFree(seg.base);
    seg.released = true;
    seg.free_bytes = 0;
    reserved_ -= seg.size;
    released += seg.size;
  }
  return released;
}

uint64_t CachingPool::cached_free_bytes() const {
  uint64_t total = 0;
  for (const auto& seg : segments_) {
    if (!seg.released) {
      total += seg.free_bytes;
    }
  }
  return total;
}

void CachingPool::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (const auto& seg : segments_) {
    if (seg.released) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.base;
    s.size = seg.size;
    s.stream = seg.stream;
    s.pool = seg.small ? "small" : "large";
    out->push_back(std::move(s));
  }
}

}  // namespace stalloc
