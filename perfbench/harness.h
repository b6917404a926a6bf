// Helpers of the layered benchmark: summary statistics, windowed per-op timing, an in-memory
// span recorder with self-time accounting, the two stand-in allocators the per-layer
// subtraction needs, and the per-kind invariant checks. Everything here is the benchmark's own
// code; perfbench_selftest exercises it without running a workload.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/allocators/allocator.h"
#include "src/gpu/sim_device.h"
#include "src/trace/trace_v2.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// ---------------------------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------------------------

// A percentile of a sample, with the count it was taken over. `valid` is false when fewer than
// ten samples lie above the requested rank, so a tail figure never rests on a handful of points.
struct Quantile {
  double value = 0;
  size_t samples = 0;
  bool valid = false;
};

// Nearest-rank percentile (q in [0, 1]) of `values`, which is sorted in place.
Quantile Percentile(std::vector<double>* values, double q);

// Median, nearest-rank (lower middle for even counts); 0 for an empty sample.
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------------------------

// A fixed amount of std::map insert/erase churn over ~1.5k live keys: the pointer-chasing work
// the allocators' ledgers and free lists do, in the benchmark's own code. Other tenants of a
// shared host slow such work by up to half for minutes at a time, far more than they slow
// arithmetic, so every timing is taken next to this reference and scaled by
// kReferenceNominalS / (reference seconds measured around it): a run in a slow host phase and a
// run in a fast one then report comparable numbers. Returns the reference's seconds.
double ReferenceSeconds();

// The reference's time on the 4-core host the benchmark was tuned on, in a quiet phase.
inline constexpr double kReferenceNominalS = 0.025;

// ---------------------------------------------------------------------------------------------
// Windowed op timing
// ---------------------------------------------------------------------------------------------

// Times fixed windows of `window` consecutive ops: the clock is read once per window, and each
// completed window contributes its mean ns/op. The first op only starts the clock, so the set-up
// cost of whatever issues the ops (the replay engine's tables) is never inside a window. Ops past
// the last full window are dropped. `Clock` returns ns; tests substitute a fake.
template <typename Clock>
class BasicOpWindows {
 public:
  explicit BasicOpWindows(uint64_t window, std::vector<double>* out)
      : window_(window), out_(out) {}
  void Op() {
    if (--left_ != 0) {
      return;
    }
    const uint64_t t = Clock::Now();
    if (started_) {
      out_->push_back(static_cast<double>(t - last_) / static_cast<double>(window_));
    }
    started_ = true;
    last_ = t;
    left_ = window_;
  }

 private:
  uint64_t window_;
  std::vector<double>* out_;
  uint64_t left_ = 1;  // the first Op() reads the clock
  uint64_t last_ = 0;
  bool started_ = false;
};

struct SteadyClock {
  static uint64_t Now() { return NowNs(); }
};
using OpWindows = BasicOpWindows<SteadyClock>;

// Ops per timing window. Small enough for thousands of windows per replay (a p99 with a
// meaningful tail), large enough that one clock read per window is noise.
inline constexpr uint64_t kOpWindow = 256;

// ---------------------------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------------------------

// One recorded span. The layer is the name's prefix up to the first '.', e.g. "core.plan" is
// charged to "core"; a span with no '.' in its name is harness time.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder's spans, -1 for a root
  uint64_t run = 0;     // spans of one measured pass share a run id
};

std::string SpanLayer(const std::string& name);

// Keeps spans in memory while enabled; a disabled recorder costs one branch per span.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(uint64_t run) { run_ = run; }
  // Opens a span under the innermost open span. Returns its index, or -1 when disabled.
  int64_t Begin(const std::string& name);
  void End(int64_t index);
  // For tests and offline use: appends a finished span as given.
  int64_t Add(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  // Per span: its duration minus its direct children's durations (spans nest, never overlap).
  std::vector<double> SelfNs() const;
  // Self time summed per layer over the spans of `run`.
  std::map<std::string, double> LayerSelfNs(uint64_t run) const;
  // Writes every span as one JSON object per line. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

// ---------------------------------------------------------------------------------------------
// Allocators
// ---------------------------------------------------------------------------------------------

// The framework side of the closed loop: forwards every call to the allocator under test, times
// windows of consecutive ops and folds each placement (op kind, size, address) into a
// word-wise multiply-xorshift digest. Replays of one trace through one allocator give one digest on every run of a commit.
class TimedAllocator final : public stalloc::Allocator {
 public:
  TimedAllocator(stalloc::Allocator* inner, std::vector<double>* windows)
      : inner_(inner), windows_(kOpWindow, windows) {}
  std::optional<uint64_t> Malloc(uint64_t size, const stalloc::RequestContext& ctx) override;
  bool Free(uint64_t addr) override;
  std::string_view name() const override { return inner_->name(); }
  uint64_t ReservedBytes() const override { return inner_->ReservedBytes(); }
  void EmptyCache() override { inner_->EmptyCache(); }
  void EndIteration() override { inner_->EndIteration(); }
  const stalloc::AllocatorStats& stats() const override { return inner_->stats(); }
  uint64_t digest() const { return digest_; }

 private:
  void Mix(uint64_t value);
  stalloc::Allocator* inner_;
  OpWindows windows_;
  uint64_t digest_ = 14695981039346656037ull;
};

// Stand-in with no ledger and no device: the replay engine's own cost plus one virtual call.
// Addresses carry the block size in their low 40 bits and a sequence number above, so blocks
// never overlap and Free needs no lookup; requests of 2^39 bytes or more fail.
class NullAllocator final : public stalloc::Allocator {
 public:
  std::optional<uint64_t> Malloc(uint64_t size, const stalloc::RequestContext& ctx) override;
  bool Free(uint64_t addr) override;
  std::string_view name() const override { return "null"; }
  uint64_t ReservedBytes() const override { return 0; }
  const stalloc::AllocatorStats& stats() const override { return stats_; }

 private:
  stalloc::AllocatorStats stats_;
  uint64_t next_seq_ = 1;
};

// Stand-in that adds the AllocatorBase ledger (accounting, stomping check, stats) over a
// bump pointer that never reuses an address: the base layer's cost with no policy and no device.
class BumpAllocator final : public stalloc::AllocatorBase {
 public:
  std::string_view name() const override { return "bump"; }
  uint64_t ReservedBytes() const override { return 0; }

 protected:
  std::optional<uint64_t> DoMalloc(uint64_t size, const stalloc::RequestContext& ctx) override;
  void DoFree(uint64_t addr, uint64_t size) override;

 private:
  uint64_t next_ = 0;
};

// ---------------------------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------------------------

// Peak of live requested bytes over the trace's op stream, computed from the cursor alone.
uint64_t PeakLiveBytes(const stalloc::TraceCursor& cursor);

// Checks a replayed allocator after its last op: Ma equals the trace's peak live bytes and no
// malloc failed; after EmptyCache, ReservedBytes() equals `retained` (0 for every kind but
// STAlloc, which keeps its static pool until destruction) and, with no pool retained, the
// device holds no classic allocation or physical handle. Appends a message per failure.
void CheckAfterReplay(stalloc::Allocator* alloc, const stalloc::SimDevice* device,
                      uint64_t peak_live, uint64_t retained, std::vector<std::string>* errors);

// After the allocator is destroyed, its device must hold nothing at all.
void CheckDeviceEmpty(const std::string& kind, const stalloc::SimDevice& device,
                      std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
