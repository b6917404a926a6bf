#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/api/report.h"
#include "src/common/units.h"

namespace perfbench {

Quantile Percentile(std::vector<double>* values, double q) {
  Quantile out;
  out.samples = values->size();
  if (values->empty()) {
    return out;
  }
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));  // 1-based nearest rank
  rank = std::clamp<size_t>(rank, 1, values->size());
  out.value = (*values)[rank - 1];
  out.valid = values->size() - rank >= 10;
  return out;
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5).value;
}

double ReferenceSeconds() {
  std::map<uint64_t, uint64_t> live;
  std::vector<uint64_t> keys;
  keys.reserve(4096);
  uint64_t x = 88172645463325252ull;  // xorshift64: the same churn on every call
  const uint64_t start = NowNs();
  for (uint64_t i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (keys.size() < 64 || x % 3000 >= keys.size()) {
      live.emplace(x, i);
      keys.push_back(x);
    } else {
      const size_t pick = (x >> 20) % keys.size();
      live.erase(keys[pick]);
      keys[pick] = keys.back();
      keys.pop_back();
    }
  }
  const uint64_t end = NowNs();
  if (live.size() != keys.size()) std::abort();  // the map is observable, so the loop stays
  return static_cast<double>(end - start) * 1e-9;
}

std::string SpanLayer(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? "harness" : name.substr(0, dot);
}

int64_t SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  spans_.back().start_ns = NowNs();  // last, so the bookkeeping above is outside the span
  return index;
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) {
    return;
  }
  const uint64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

int64_t SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::SelfNs() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::LayerSelfNs(uint64_t run) const {
  const std::vector<double> self = SelfNs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run == run) {
      out[SpanLayer(spans_[i].name)] += self[i];
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %lld, "
                 "\"run\": %llu}\n",
                 stalloc::Json::Escape(s.name).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.run));
  }
  return std::fclose(f) == 0;
}

void TimedAllocator::Mix(uint64_t value) {
  // One multiply and one shift per 64-bit word, so the digest adds only a few ns to a timed op.
  digest_ = (digest_ ^ value) * 1099511628211ull;
  digest_ ^= digest_ >> 29;
}

std::optional<uint64_t> TimedAllocator::Malloc(uint64_t size,
                                               const stalloc::RequestContext& ctx) {
  const std::optional<uint64_t> addr = inner_->Malloc(size, ctx);
  Mix(size);
  Mix(addr.value_or(~uint64_t{0}));
  windows_.Op();
  return addr;
}

bool TimedAllocator::Free(uint64_t addr) {
  const bool ok = inner_->Free(addr);
  Mix(addr ^ (uint64_t{1} << 63));
  windows_.Op();
  return ok;
}

namespace {
constexpr uint64_t kSizeBits = 40;
constexpr uint64_t kSizeMask = (uint64_t{1} << kSizeBits) - 1;
}  // namespace

std::optional<uint64_t> NullAllocator::Malloc(uint64_t size, const stalloc::RequestContext&) {
  ++stats_.num_mallocs;
  if (size == 0 || size >= (uint64_t{1} << (kSizeBits - 1))) {
    ++stats_.num_oom;
    return std::nullopt;
  }
  stats_.allocated_current += size;
  stats_.allocated_peak = std::max(stats_.allocated_peak, stats_.allocated_current);
  ++stats_.live_blocks;
  return (next_seq_++ << kSizeBits) | size;
}

bool NullAllocator::Free(uint64_t addr) {
  ++stats_.num_frees;
  stats_.allocated_current -= addr & kSizeMask;
  --stats_.live_blocks;
  return true;
}

std::optional<uint64_t> BumpAllocator::DoMalloc(uint64_t size, const stalloc::RequestContext&) {
  const uint64_t addr = next_;
  next_ += stalloc::AlignUp(size, stalloc::SimDevice::kMallocAlign);
  return addr;
}

void BumpAllocator::DoFree(uint64_t, uint64_t) {}

uint64_t PeakLiveBytes(const stalloc::TraceCursor& cursor) {
  uint64_t live = 0;
  uint64_t peak = 0;
  for (uint64_t i = 0; i < cursor.num_ops(); ++i) {
    const uint64_t size = cursor.EventSize(cursor.OpEventId(i));
    if (cursor.OpIsFree(i)) {
      live -= size;
    } else {
      live += size;
      peak = std::max(peak, live);
    }
  }
  return peak;
}

void CheckAfterReplay(stalloc::Allocator* alloc, const stalloc::SimDevice* device,
                      uint64_t peak_live, uint64_t retained, std::vector<std::string>* errors) {
  const std::string kind(alloc->name());
  const stalloc::AllocatorStats& stats = alloc->stats();
  if (stats.num_oom != 0) {
    errors->push_back(kind + ": " + std::to_string(stats.num_oom) + " failed mallocs");
  }
  if (stats.allocated_peak != peak_live) {
    errors->push_back(kind + ": allocated_peak " + std::to_string(stats.allocated_peak) +
                      " != trace peak live bytes " + std::to_string(peak_live));
  }
  if (stats.allocated_current != 0) {
    errors->push_back(kind + ": " + std::to_string(stats.allocated_current) +
                      " bytes still live after the replay");
  }
  alloc->EmptyCache();
  if (alloc->ReservedBytes() != retained) {
    errors->push_back(kind + ": ReservedBytes() " + std::to_string(alloc->ReservedBytes()) +
                      " after free-all + EmptyCache, expected " + std::to_string(retained));
  }
  if (device != nullptr && retained == 0 &&
      (device->live_classic_allocs() != 0 || device->live_handles() != 0)) {
    errors->push_back(kind + ": device still holds " +
                      std::to_string(device->live_classic_allocs()) + " allocations and " +
                      std::to_string(device->live_handles()) + " handles after EmptyCache");
  }
}

void CheckDeviceEmpty(const std::string& kind, const stalloc::SimDevice& device,
                      std::vector<std::string>* errors) {
  if (device.live_classic_allocs() != 0 || device.live_handles() != 0 ||
      device.live_reservations() != 0) {
    errors->push_back(kind + ": device not empty after the allocator was destroyed (" +
                      std::to_string(device.live_classic_allocs()) + " allocations, " +
                      std::to_string(device.live_handles()) + " handles, " +
                      std::to_string(device.live_reservations()) + " reservations)");
  }
}

}  // namespace perfbench
