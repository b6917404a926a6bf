#include "src/allocators/expandable_segments.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

ExpandableSegmentsAllocator::ExpandableSegmentsAllocator(SimDevice* device,
                                                         ExpandableSegmentsConfig config)
    : device_(device), config_(config), small_pool_(device) {}

ExpandableSegmentsAllocator::~ExpandableSegmentsAllocator() {
  for (auto& [stream, seg] : streams_) {
    ReleaseSegment(seg);
  }
}

void ExpandableSegmentsAllocator::ReleaseSegment(StreamSegment& seg) {
  for (const auto& [off, handle] : seg.granule_handles) {
    device_->MemUnmap(seg.va, off, SimDevice::kGranularity);
    device_->MemRelease(handle);
  }
  seg.granule_handles.clear();
  device_->FreeVa(seg.va);
  seg.va = 0;
}

ExpandableSegmentsAllocator::StreamSegment& ExpandableSegmentsAllocator::SegmentFor(
    StreamId stream) {
  auto it = streams_.find(stream);
  if (it != streams_.end()) {
    return it->second;
  }
  StreamSegment seg;
  seg.va_size = config_.va_size != 0 ? AlignUp(config_.va_size, SimDevice::kGranularity)
                                     : AlignUp(device_->capacity(), SimDevice::kGranularity);
  auto va = device_->ReserveVa(seg.va_size);
  STALLOC_CHECK(va.has_value(), << "VA reservation failed");
  seg.va = *va;
  return streams_.emplace(stream, std::move(seg)).first->second;
}

uint64_t ExpandableSegmentsAllocator::mapped_bytes() const {
  uint64_t total = 0;
  for (const auto& [stream, seg] : streams_) {
    total += seg.mapped_end;
  }
  return total;
}

uint64_t ExpandableSegmentsAllocator::ReservedBytes() const {
  return mapped_bytes() + small_pool_.ReservedBytes();
}

std::optional<uint64_t> ExpandableSegmentsAllocator::DoMalloc(uint64_t size,
                                                              const RequestContext& ctx) {
  if (IsSmall(size)) {
    return small_pool_.Malloc(size, ctx.stream);
  }
  StreamSegment& seg = SegmentFor(ctx.stream);
  const uint64_t rounded = AlignUp(size, 512);
  auto off = LargeMalloc(seg, rounded);
  if (!off.has_value()) {
    return std::nullopt;
  }
  return seg.va + *off;
}

void ExpandableSegmentsAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (IsSmall(size)) {
    small_pool_.Free(addr);
    return;
  }
  // Frees carry no stream: scan the (one per stream) segments for the VA range holding addr.
  for (auto& [stream, seg] : streams_) {
    if (addr >= seg.va && addr < seg.va + seg.va_size) {
      LargeFree(seg, addr - seg.va);
      return;
    }
  }
  STALLOC_CHECK(false, << "expandable segments: unknown address " << addr);
}

std::optional<uint64_t> ExpandableSegmentsAllocator::LargeMalloc(StreamSegment& seg,
                                                                 uint64_t rounded) {
  // Best fit among free blocks of the segment.
  auto best = seg.free_list.PopBestFit(rounded);
  if (!best.has_value()) {
    // No hole fits: grow the frontier. If a free block ends exactly at the frontier we only need
    // the difference.
    uint64_t tail_free = 0;
    if (!seg.blocks.empty()) {
      auto last = std::prev(seg.blocks.end());
      if (last->second.free && last->second.off + last->second.size == seg.mapped_end) {
        tail_free = last->second.size;
      }
    }
    const uint64_t need = rounded > tail_free ? rounded - tail_free : 0;
    if (need > 0 && !Grow(seg, AlignUp(need, SimDevice::kGranularity))) {
      return std::nullopt;
    }
    best = seg.free_list.PopBestFit(rounded);
    STALLOC_CHECK(best.has_value(), << "expandable segment grow did not produce a fit");
  }
  const uint64_t off = best->second;
  auto bit = seg.blocks.find(off);
  STALLOC_CHECK(bit != seg.blocks.end() && bit->second.free);
  bit->second.free = false;
  // Split the remainder back into the free list (virtual space: always worth splitting).
  if (bit->second.size - rounded >= 512) {
    Block rest;
    rest.off = off + rounded;
    rest.size = bit->second.size - rounded;
    rest.free = true;
    bit->second.size = rounded;
    // The remainder lands immediately after `bit` in offset order: O(1) hinted insert.
    seg.blocks.emplace_hint(std::next(bit), rest.off, rest);
    seg.free_list.Insert(rest.size, rest.off);
  }
  return off;
}

bool ExpandableSegmentsAllocator::Grow(StreamSegment& seg, uint64_t bytes) {
  STALLOC_CHECK_EQ(bytes % SimDevice::kGranularity, 0u);
  if (seg.mapped_end + bytes > seg.va_size) {
    return false;  // virtual reservation exhausted
  }
  // Map one granule handle at a time, as PyTorch does (granular handles allow partial unmap).
  std::vector<std::pair<uint64_t, MemHandle>> created;
  for (uint64_t off = seg.mapped_end; off < seg.mapped_end + bytes;
       off += SimDevice::kGranularity) {
    auto h = device_->MemCreate(SimDevice::kGranularity);
    if (!h.has_value()) {
      // Device OOM: let the small pool return cached segments and *other* streams trim, then
      // retry once. The growing segment itself must not be trimmed — its frontier is the very
      // region being extended.
      RecordEmptyCache(small_pool_.EmptyCache());
      for (auto& [stream, other] : streams_) {
        if (&other == &seg) {
          continue;
        }
        const uint64_t saved = config_.trim_threshold;
        config_.trim_threshold = 1;
        TrimTail(other);
        config_.trim_threshold = saved;
      }
      h = device_->MemCreate(SimDevice::kGranularity);
    }
    if (!h.has_value()) {
      // Roll back partial growth.
      for (auto& [o, handle] : created) {
        device_->MemUnmap(seg.va, o, SimDevice::kGranularity);
        device_->MemRelease(handle);
      }
      return false;
    }
    STALLOC_CHECK(device_->MemMap(seg.va, off, *h) == DeviceStatus::kOk);
    created.emplace_back(off, *h);
  }
  for (auto& [off, handle] : created) {
    seg.granule_handles.emplace(off, handle);
  }

  // Extend the tail free block or open a new one.
  const uint64_t old_end = seg.mapped_end;
  seg.mapped_end += bytes;
  if (!seg.blocks.empty()) {
    auto last = std::prev(seg.blocks.end());
    if (last->second.free && last->second.off + last->second.size == old_end) {
      seg.free_list.Erase(last->second.size, last->second.off);
      last->second.size += bytes;
      seg.free_list.Insert(last->second.size, last->second.off);
      return true;
    }
  }
  Block block;
  block.off = old_end;
  block.size = bytes;
  block.free = true;
  seg.blocks.emplace(block.off, block);
  seg.free_list.Insert(block.size, block.off);
  return true;
}

void ExpandableSegmentsAllocator::LargeFree(StreamSegment& seg, uint64_t off) {
  auto it = seg.blocks.find(off);
  STALLOC_CHECK(it != seg.blocks.end() && !it->second.free,
                << "expandable segments: free of unknown offset " << off);
  it->second.free = true;
  Coalesce(seg, it);
  TrimTail(seg);
}

void ExpandableSegmentsAllocator::Coalesce(StreamSegment& seg,
                                           std::map<uint64_t, Block>::iterator it) {
  auto next = std::next(it);
  if (next != seg.blocks.end() && next->second.free &&
      it->second.off + it->second.size == next->second.off) {
    seg.free_list.Erase(next->second.size, next->second.off);
    it->second.size += next->second.size;
    seg.blocks.erase(next);
  }
  if (it != seg.blocks.begin()) {
    auto prev = std::prev(it);
    if (prev->second.free && prev->second.off + prev->second.size == it->second.off) {
      seg.free_list.Erase(prev->second.size, prev->second.off);
      prev->second.size += it->second.size;
      seg.blocks.erase(it);
      it = prev;
    }
  }
  seg.free_list.Insert(it->second.size, it->second.off);
}

void ExpandableSegmentsAllocator::TrimTail(StreamSegment& seg) {
  if (seg.blocks.empty()) {
    return;
  }
  auto last = std::prev(seg.blocks.end());
  if (!last->second.free || last->second.off + last->second.size != seg.mapped_end) {
    return;
  }
  if (last->second.size < config_.trim_threshold) {
    return;
  }
  // Unmap whole granules above the free block's (granularity-aligned) start.
  const uint64_t new_end = AlignUp(last->second.off, SimDevice::kGranularity);
  if (new_end >= seg.mapped_end) {
    return;
  }
  for (uint64_t off = new_end; off < seg.mapped_end; off += SimDevice::kGranularity) {
    auto hit = seg.granule_handles.find(off);
    STALLOC_CHECK(hit != seg.granule_handles.end());
    STALLOC_CHECK(device_->MemUnmap(seg.va, off, SimDevice::kGranularity) == DeviceStatus::kOk);
    STALLOC_CHECK(device_->MemRelease(hit->second) == DeviceStatus::kOk);
    seg.granule_handles.erase(hit);
  }
  seg.free_list.Erase(last->second.size, last->second.off);
  if (last->second.off < new_end) {
    last->second.size = new_end - last->second.off;
    seg.free_list.Insert(last->second.size, last->second.off);
  } else {
    seg.blocks.erase(last);
  }
  seg.mapped_end = new_end;
}

void ExpandableSegmentsAllocator::EmptyCache() {
  RecordEmptyCache(small_pool_.EmptyCache());
  const uint64_t saved = config_.trim_threshold;
  config_.trim_threshold = 1;
  for (auto& [stream, seg] : streams_) {
    TrimTail(seg);
  }
  config_.trim_threshold = saved;
}

void ExpandableSegmentsAllocator::AppendHeapSegments(
    std::vector<telemetry::HeapSegment>* out) const {
  // Only the mapped prefix of each stream's VA reservation is real reserved memory.
  for (const auto& [stream, seg] : streams_) {
    if (seg.mapped_end == 0) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.va;
    s.size = seg.mapped_end;
    s.stream = stream;
    s.pool = "expandable";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
