#include "src/allocators/gmlake.h"

#include <algorithm>
#include <cstdint>
#include <map>
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
  for (uint32_t seg_id = 0; seg_id < segments_.size(); ++seg_id) {
    Segment& seg = segments_[seg_id];
    if (seg.released) {
      continue;
    }
    uint64_t off = 0;
    for (const auto& part : seg.handles) {
      device_->MemUnmap(seg.va, off, part.size);
      device_->MemRelease(part.handle);
      off += part.size;
    }
    device_->FreeVa(seg.va);
    seg.released = true;
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
  auto it = blocks_.find(addr);
  STALLOC_CHECK(it != blocks_.end() && !it->second.free,
                << "gmlake: free of unknown block " << addr);
  it->second.free = true;
  segments_[it->second.segment].free_bytes += it->second.size;
  Coalesce(it);
}

std::optional<uint64_t> GMLakeAllocator::LargeMalloc(uint64_t rounded, StreamId stream) {
  if (auto addr = AllocFromCache(rounded, stream); addr.has_value()) {
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

std::optional<uint64_t> GMLakeAllocator::AllocFromCache(uint64_t rounded, StreamId stream) {
  auto best = free_lists_[stream].PopBestFit(rounded);
  if (!best.has_value()) {
    return std::nullopt;
  }
  const uint64_t addr = best->second;
  auto bit = blocks_.find(addr);
  STALLOC_CHECK(bit != blocks_.end() && bit->second.free);
  bit->second.free = false;
  segments_[bit->second.segment].free_bytes -= bit->second.size;
  SplitBlock(bit, rounded);
  return addr;
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

  Segment seg;
  seg.va = *va;
  seg.size = seg_size;
  seg.stream = stream;
  seg.handles.push_back(HandlePart{*handle, seg_size});
  segments_.push_back(std::move(seg));
  reserved_large_ += seg_size;
  const uint32_t seg_id = static_cast<uint32_t>(segments_.size() - 1);

  Block block;
  block.addr = *va;
  block.size = seg_size;
  block.free = false;
  block.segment = seg_id;
  auto [bit, inserted] = blocks_.emplace(block.addr, block);
  STALLOC_CHECK(inserted);
  SplitBlock(bit, rounded);
  return *va;
}

std::vector<uint32_t> GMLakeAllocator::FreeSegments() const {
  std::vector<uint32_t> out;
  for (uint32_t seg_id = 0; seg_id < segments_.size(); ++seg_id) {
    const Segment& seg = segments_[seg_id];
    if (!seg.released && seg.free_bytes == seg.size) {
      out.push_back(seg_id);
    }
  }
  return out;
}

std::vector<uint32_t> GMLakeAllocator::FreeSegmentsOfStream(StreamId stream) const {
  std::vector<uint32_t> out;
  for (uint32_t seg_id : FreeSegments()) {
    if (segments_[seg_id].stream == stream) {
      out.push_back(seg_id);
    }
  }
  return out;
}

void GMLakeAllocator::DismantleSegment(uint32_t seg_id, bool release_physical) {
  Segment& seg = segments_[seg_id];
  STALLOC_CHECK(!seg.released && seg.free_bytes == seg.size);
  // A fully-free segment is one coalesced free block starting at its base.
  auto it = blocks_.find(seg.va);
  STALLOC_CHECK(it != blocks_.end() && it->second.free && it->second.size == seg.size);
  free_lists_[seg.stream].Erase(it->second.size, it->second.addr);
  blocks_.erase(it);
  uint64_t off = 0;
  for (const auto& part : seg.handles) {
    STALLOC_CHECK(device_->MemUnmap(seg.va, off, part.size) == DeviceStatus::kOk);
    if (release_physical) {
      STALLOC_CHECK(device_->MemRelease(part.handle) == DeviceStatus::kOk);
    }
    off += part.size;
  }
  STALLOC_CHECK(device_->FreeVa(seg.va) == DeviceStatus::kOk);
  if (release_physical) {
    reserved_large_ -= seg.size;
  }
  seg.released = true;
  seg.free_bytes = 0;
}

std::optional<uint64_t> GMLakeAllocator::AllocByStitching(uint64_t rounded, StreamId stream) {
  const uint64_t needed = AlignUp(rounded, SimDevice::kGranularity);
  // Gather fully-free same-stream segments, largest first, until their physical memory covers
  // the request (blocks of other streams may still be in flight on their streams).
  std::vector<uint32_t> candidates = FreeSegmentsOfStream(stream);
  std::sort(candidates.begin(), candidates.end(), [&](uint32_t a, uint32_t b) {
    return segments_[a].size > segments_[b].size;
  });
  std::vector<uint32_t> picked;
  uint64_t total = 0;
  for (uint32_t seg_id : candidates) {
    if (total >= needed) {
      break;
    }
    picked.push_back(seg_id);
    total += segments_[seg_id].size;
  }
  if (total < needed) {
    return std::nullopt;
  }

  // Unmap the victims (keeping their physical handles) and collect the handles. The physical
  // bytes move into the stitched segment, so reserved_large_ is unchanged.
  std::vector<HandlePart> parts;
  for (uint32_t seg_id : picked) {
    for (const auto& part : segments_[seg_id].handles) {
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

  Segment seg;
  seg.va = *va;
  seg.size = total;
  seg.handles = std::move(parts);
  seg.stitched = true;
  seg.stream = stream;
  segments_.push_back(std::move(seg));
  const uint32_t seg_id = static_cast<uint32_t>(segments_.size() - 1);

  Block block;
  block.addr = *va;
  block.size = total;
  block.free = false;
  block.segment = seg_id;
  auto [bit, inserted] = blocks_.emplace(block.addr, block);
  STALLOC_CHECK(inserted);
  SplitBlock(bit, rounded);
  return *va;
}

void GMLakeAllocator::SplitBlock(std::map<uint64_t, Block>::iterator it, uint64_t want) {
  Block& block = it->second;
  STALLOC_CHECK_GE(block.size, want);
  const uint64_t remainder = block.size - want;
  if (remainder <= config_.small_size) {
    return;  // keep the PyTorch large-pool rule: only split off > 1 MiB remainders
  }
  block.size = want;
  Block rest;
  rest.addr = block.addr + want;
  rest.size = remainder;
  rest.free = true;
  rest.segment = block.segment;
  // The remainder lands immediately after `it` in address order: O(1) hinted insert.
  blocks_.emplace_hint(std::next(it), rest.addr, rest);
  segments_[rest.segment].free_bytes += remainder;
  free_lists_[segments_[rest.segment].stream].Insert(remainder, rest.addr);
}

void GMLakeAllocator::Coalesce(std::map<uint64_t, Block>::iterator it) {
  const uint32_t seg_id = it->second.segment;
  auto& free_list = free_lists_[segments_[seg_id].stream];
  auto next = std::next(it);
  if (next != blocks_.end() && next->second.free && next->second.segment == seg_id &&
      it->second.addr + it->second.size == next->second.addr) {
    free_list.Erase(next->second.size, next->second.addr);
    it->second.size += next->second.size;
    blocks_.erase(next);
  }
  if (it != blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.free && prev->second.segment == seg_id &&
        prev->second.addr + prev->second.size == it->second.addr) {
      free_list.Erase(prev->second.size, prev->second.addr);
      prev->second.size += it->second.size;
      blocks_.erase(it);
      it = prev;
    }
  }
  free_list.Insert(it->second.size, it->second.addr);
}

uint64_t GMLakeAllocator::ReleaseCachedSegments() {
  uint64_t released = 0;
  for (uint32_t seg_id : FreeSegments()) {
    released += segments_[seg_id].size;
    DismantleSegment(seg_id, /*release_physical=*/true);
  }
  return released;
}

void GMLakeAllocator::EmptyCache() {
  RecordEmptyCache(small_pool_.EmptyCache());
  ReleaseCachedSegments();
}

void GMLakeAllocator::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (const auto& seg : segments_) {
    if (seg.released) {
      continue;
    }
    telemetry::HeapSegment s;
    s.base = seg.va;
    s.size = seg.size;
    s.stream = seg.stream;
    s.pool = seg.stitched ? "stitched" : "pblock";
    out->push_back(std::move(s));
  }
  small_pool_.AppendHeapSegments(out);
}

}  // namespace stalloc
