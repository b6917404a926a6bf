#include "src/allocators/expandable_segments.h"

#include <algorithm>
#include <cstdint>
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
  for (size_t i = 0; i < seg.granules.size(); ++i) {
    device_->MemUnmap(seg.va, i * SimDevice::kGranularity, SimDevice::kGranularity);
    device_->MemRelease(seg.granules[i]);
  }
  seg.granules.clear();
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
  seg.table_seg = table_.AddSegment(seg.va, 0, stream);
  return streams_.emplace(stream, std::move(seg)).first->second;
}

uint64_t ExpandableSegmentsAllocator::mapped_bytes() const {
  uint64_t total = 0;
  for (const auto& [stream, seg] : streams_) {
    total += MappedEnd(seg);
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
  return LargeMalloc(ctx.stream, AlignUp(size, 512));
}

void ExpandableSegmentsAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (IsSmall(size)) {
    small_pool_.Free(addr);
    return;
  }
  // Frees carry no stream; the table knows the block's segment, whose key is the stream.
  const uint32_t table_seg = table_.Release(addr).segment;
  TrimTail(streams_.at(static_cast<StreamId>(table_.segment(table_seg).key)),
           config_.trim_threshold);
}

std::optional<uint64_t> ExpandableSegmentsAllocator::LargeMalloc(StreamId stream,
                                                                 uint64_t rounded) {
  StreamSegment& seg = SegmentFor(stream);
  // Best fit among free blocks of the segment; split remainders are virtual space, so any
  // >= 512 B remainder is worth keeping.
  auto addr = table_.Take(stream, rounded, SimDevice::kMallocAlign);
  if (!addr.has_value()) {
    // No hole fits: grow the frontier. If the tail block is free we only need the difference.
    const uint64_t tail_free = table_.TailFree(seg.table_seg);
    const uint64_t need = rounded > tail_free ? rounded - tail_free : 0;
    if (need > 0 && !Grow(seg, AlignUp(need, SimDevice::kGranularity))) {
      return std::nullopt;
    }
    addr = table_.Take(stream, rounded, SimDevice::kMallocAlign);
    STALLOC_CHECK(addr.has_value(), << "expandable segment grow did not produce a fit");
  }
  return addr;
}

bool ExpandableSegmentsAllocator::Grow(StreamSegment& seg, uint64_t bytes) {
  STALLOC_CHECK_EQ(bytes % SimDevice::kGranularity, 0u);
  const uint64_t old_end = MappedEnd(seg);
  if (old_end + bytes > seg.va_size) {
    return false;  // virtual reservation exhausted
  }
  // Map one granule handle at a time, as PyTorch does (granular handles allow partial unmap).
  for (uint64_t off = old_end; off < old_end + bytes; off += SimDevice::kGranularity) {
    auto h = device_->MemCreate(SimDevice::kGranularity);
    if (!h.has_value()) {
      // Device OOM: let the small pool return cached segments and *other* streams trim, then
      // retry once. The growing segment itself must not be trimmed — its frontier is the very
      // region being extended.
      small_pool_.EmptyCache();
      for (auto& [stream, other] : streams_) {
        if (&other != &seg) {
          TrimTail(other, /*threshold=*/1);
        }
      }
      h = device_->MemCreate(SimDevice::kGranularity);
    }
    if (!h.has_value()) {
      // Roll back partial growth.
      for (size_t i = old_end / SimDevice::kGranularity; i < seg.granules.size(); ++i) {
        device_->MemUnmap(seg.va, i * SimDevice::kGranularity, SimDevice::kGranularity);
        device_->MemRelease(seg.granules[i]);
      }
      seg.granules.resize(old_end / SimDevice::kGranularity);
      return false;
    }
    STALLOC_CHECK(device_->MemMap(seg.va, off, *h) == DeviceStatus::kOk);
    seg.granules.push_back(*h);
  }
  table_.GrowTail(seg.table_seg, bytes);
  return true;
}

void ExpandableSegmentsAllocator::TrimTail(StreamSegment& seg, uint64_t threshold) {
  const uint64_t tail_free = table_.TailFree(seg.table_seg);
  if (tail_free == 0 || tail_free < threshold) {
    return;
  }
  // Unmap whole granules above the free tail block's (granularity-aligned) start.
  const uint64_t end = MappedEnd(seg);
  const uint64_t new_end = AlignUp(end - tail_free, SimDevice::kGranularity);
  if (new_end >= end) {
    return;
  }
  for (size_t i = new_end / SimDevice::kGranularity; i < seg.granules.size(); ++i) {
    STALLOC_CHECK(device_->MemUnmap(seg.va, i * SimDevice::kGranularity,
                                    SimDevice::kGranularity) == DeviceStatus::kOk);
    STALLOC_CHECK(device_->MemRelease(seg.granules[i]) == DeviceStatus::kOk);
  }
  seg.granules.resize(new_end / SimDevice::kGranularity);
  table_.ShrinkTail(seg.table_seg, new_end);
}

void ExpandableSegmentsAllocator::DoEmptyCache() {
  small_pool_.EmptyCache();
  for (auto& [stream, seg] : streams_) {
    TrimTail(seg, /*threshold=*/1);
  }
}

void ExpandableSegmentsAllocator::AppendHeapSegments(
    std::vector<telemetry::HeapSegment>* out) const {
  // Only the mapped prefix of each stream's VA reservation is real reserved memory.
  for (const auto& [stream, seg] : streams_) {
    if (MappedEnd(seg) == 0) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.va;
    s.size = MappedEnd(seg);
    s.stream = stream;
    s.pool = "expandable";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
