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
  for (uint32_t seg = 0; seg < table_.num_segments(); ++seg) {
    if (!table_.segment(seg).dropped) {
      device_->DevFree(table_.segment(seg).base);
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
  table_.AddSegment(*base, seg_size, PoolKey(small, stream));
  table_.TakeAt(*base, rounded, MinSplit(small));
  reserved_ += seg_size;
  return *base;
}

std::optional<uint64_t> CachingPool::Malloc(uint64_t size, StreamId stream) {
  const uint64_t rounded = RoundSize(size);
  const bool small = IsSmall(rounded);
  if (auto addr = table_.Take(PoolKey(small, stream), rounded, MinSplit(small));
      addr.has_value()) {
    return addr;
  }
  return AllocFromNewSegment(rounded, small, stream);
}

void CachingPool::Free(uint64_t addr) { table_.Release(addr); }

uint64_t CachingPool::EmptyCache() {
  uint64_t released = 0;
  for (uint32_t seg = 0; seg < table_.num_segments(); ++seg) {
    if (!table_.segment(seg).fully_free()) {
      continue;
    }
    const uint64_t base = table_.segment(seg).base;
    const uint64_t size = table_.segment(seg).size;
    table_.DropSegment(seg);
    device_->DevFree(base);
    reserved_ -= size;
    released += size;
  }
  return released;
}

uint64_t CachingPool::cached_free_bytes() const {
  uint64_t total = 0;
  for (uint32_t seg = 0; seg < table_.num_segments(); ++seg) {
    total += table_.segment(seg).free_bytes;  // 0 once dropped
  }
  return total;
}

void CachingPool::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (uint32_t id = 0; id < table_.num_segments(); ++id) {
    const BlockTable::Segment& seg = table_.segment(id);
    if (seg.dropped) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.base;
    s.size = seg.size;
    s.stream = static_cast<StreamId>(seg.key >> 1);
    s.pool = (seg.key & 1) != 0 ? "small" : "large";
    out->push_back(std::move(s));
  }
}

}  // namespace stalloc
