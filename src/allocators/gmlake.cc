#include "src/allocators/gmlake.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

GMLakeAllocator::GMLakeAllocator(SimDevice* device, GMLakeConfig config)
    : device_(device), config_(config), small_pool_(device) {}

GMLakeAllocator::~GMLakeAllocator() {
  for (uint32_t seg = 0; seg < table_.num_segments(); ++seg) {
    if (table_.segment(seg).dropped) {
      continue;
    }
    const VaPtr va = table_.segment(seg).base;
    uint64_t off = 0;
    for (const auto& part : backing_[seg].handles) {
      device_->MemUnmap(va, off, part.size);
      device_->MemRelease(part.handle);
      off += part.size;
    }
    device_->FreeVa(va);
  }
}

uint64_t GMLakeAllocator::ReservedBytes() const {
  return reserved_large_ + small_pool_.ReservedBytes();
}

uint64_t GMLakeAllocator::SegmentSizeFor(uint64_t rounded) const {
  if (rounded < config_.min_large_alloc) {
    return config_.large_buffer;
  }
  return AlignUp(rounded, SimDevice::kGranularity);
}

std::optional<uint64_t> GMLakeAllocator::DoMalloc(uint64_t size, const RequestContext& ctx) {
  if (IsSmall(size)) {
    return small_pool_.Malloc(size, ctx.stream);
  }
  return LargeMalloc(AlignUp(size, 512), ctx.stream);
}

void GMLakeAllocator::DoFree(uint64_t addr, uint64_t size) {
  if (IsSmall(size)) {
    small_pool_.Free(addr);
    return;
  }
  table_.Release(addr);
}

std::optional<uint64_t> GMLakeAllocator::LargeMalloc(uint64_t rounded, StreamId stream) {
  if (auto addr = table_.Take(stream, rounded, MinSplit()); addr.has_value()) {
    return addr;
  }
  if (auto addr = AllocFromNewSegment(rounded, stream); addr.has_value()) {
    return addr;
  }
  // Physical memory is exhausted. Above the fragLimit threshold, defragment by stitching the
  // physical handles of free pBlocks into a fresh contiguous virtual range.
  if (rounded >= config_.frag_limit) {
    if (auto addr = AllocByStitching(rounded, stream); addr.has_value()) {
      return addr;
    }
  }
  // Last resort: release every cached free segment and retry a fresh physical allocation.
  if (ReleaseCachedSegments() > 0) {
    return AllocFromNewSegment(rounded, stream);
  }
  return std::nullopt;
}

std::optional<uint64_t> GMLakeAllocator::AllocFromNewSegment(uint64_t rounded,
                                                             StreamId stream) {
  const uint64_t seg_size = SegmentSizeFor(rounded);
  auto va = device_->ReserveVa(seg_size);
  if (!va.has_value()) {
    return std::nullopt;
  }
  auto handle = device_->MemCreate(seg_size);
  if (!handle.has_value()) {
    device_->FreeVa(*va);
    return std::nullopt;
  }
  STALLOC_CHECK(device_->MemMap(*va, 0, *handle) == DeviceStatus::kOk);
  reserved_large_ += seg_size;
  return AddSegmentAndTake(*va, {HandlePart{*handle, seg_size}}, /*stitched=*/false, stream,
                           rounded);
}

uint64_t GMLakeAllocator::AddSegmentAndTake(VaPtr va, std::vector<HandlePart> parts,
                                            bool stitched, StreamId stream, uint64_t rounded) {
  uint64_t size = 0;
  for (const auto& part : parts) {
    size += part.size;
  }
  const uint32_t seg = table_.AddSegment(va, size, stream);
  STALLOC_CHECK_EQ(seg, backing_.size());
  backing_.push_back(Backing{std::move(parts), stitched});
  table_.TakeAt(va, rounded, MinSplit());
  return va;
}

std::vector<uint32_t> GMLakeAllocator::FreeSegments() const {
  std::vector<uint32_t> out;
  for (uint32_t seg = 0; seg < table_.num_segments(); ++seg) {
    if (table_.segment(seg).fully_free()) {
      out.push_back(seg);
    }
  }
  return out;
}

std::vector<uint32_t> GMLakeAllocator::FreeSegmentsOfStream(StreamId stream) const {
  std::vector<uint32_t> out;
  for (uint32_t seg_id : FreeSegments()) {
    if (table_.segment(seg_id).key == stream) {
      out.push_back(seg_id);
    }
  }
  return out;
}

void GMLakeAllocator::DismantleSegment(uint32_t seg_id, bool release_physical) {
  const VaPtr va = table_.segment(seg_id).base;
  const uint64_t size = table_.segment(seg_id).size;
  table_.DropSegment(seg_id);  // checks the segment is fully free
  uint64_t off = 0;
  for (const auto& part : backing_[seg_id].handles) {
    STALLOC_CHECK(device_->MemUnmap(va, off, part.size) == DeviceStatus::kOk);
    if (release_physical) {
      STALLOC_CHECK(device_->MemRelease(part.handle) == DeviceStatus::kOk);
    }
    off += part.size;
  }
  STALLOC_CHECK(device_->FreeVa(va) == DeviceStatus::kOk);
  if (release_physical) {
    reserved_large_ -= size;
  }
}

std::optional<uint64_t> GMLakeAllocator::AllocByStitching(uint64_t rounded, StreamId stream) {
  const uint64_t needed = AlignUp(rounded, SimDevice::kGranularity);
  // Gather fully-free same-stream segments, largest first, until their physical memory covers
  // the request (blocks of other streams may still be in flight on their streams).
  std::vector<uint32_t> candidates = FreeSegmentsOfStream(stream);
  std::sort(candidates.begin(), candidates.end(), [&](uint32_t a, uint32_t b) {
    return table_.segment(a).size > table_.segment(b).size;
  });
  std::vector<uint32_t> picked;
  uint64_t total = 0;
  for (uint32_t seg_id : candidates) {
    if (total >= needed) {
      break;
    }
    picked.push_back(seg_id);
    total += table_.segment(seg_id).size;
  }
  if (total < needed) {
    return std::nullopt;
  }

  // Unmap the victims (keeping their physical handles) and collect the handles. The physical
  // bytes move into the stitched segment, so reserved_large_ is unchanged.
  std::vector<HandlePart> parts;
  for (uint32_t seg_id : picked) {
    for (const auto& part : backing_[seg_id].handles) {
      parts.push_back(part);
    }
    DismantleSegment(seg_id, /*release_physical=*/false);
  }

  auto va = device_->ReserveVa(total);
  STALLOC_CHECK(va.has_value());
  uint64_t off = 0;
  for (const auto& part : parts) {
    STALLOC_CHECK(device_->MemMap(*va, off, part.handle) == DeviceStatus::kOk);
    off += part.size;
  }
  ++num_stitches_;
  if (telemetry::Enabled()) {
    static telemetry::Counter* stitches =
        telemetry::MetricsRegistry::Global().GetCounter("alloc.gmlake_stitches");
    stitches->Add();
    auto& tracer = telemetry::Tracer::Global();
    Json args = Json::Object();
    args.Set("size", total);
    args.Set("parts", static_cast<unsigned long long>(parts.size()));
    tracer.ThreadTrack()->Instant("gmlake stitch", telemetry::kCatAlloc, tracer.NowUs(),
                                  std::move(args));
  }

  return AddSegmentAndTake(*va, std::move(parts), /*stitched=*/true, stream, rounded);
}

uint64_t GMLakeAllocator::ReleaseCachedSegments() {
  uint64_t released = 0;
  for (uint32_t seg_id : FreeSegments()) {
    released += table_.segment(seg_id).size;
    DismantleSegment(seg_id, /*release_physical=*/true);
  }
  return released;
}

void GMLakeAllocator::DoEmptyCache() {
  small_pool_.EmptyCache();
  ReleaseCachedSegments();
}

void GMLakeAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (uint32_t id = 0; id < table_.num_segments(); ++id) {
    const BlockTable::Segment& seg = table_.segment(id);
    if (seg.dropped) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.base;
    s.size = seg.size;
    s.stream = static_cast<StreamId>(seg.key);
    s.pool = backing_[id].stitched ? "stitched" : "pblock";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
