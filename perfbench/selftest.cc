// Self-tests of the benchmark's own helpers (perfbench/harness.h): percentiles with their sample
// count, windowed op timing, span self time, the stand-in allocators and the invariant checks.
// Exit code 0 when every check holds; run.py runs this before each workload.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/allocators/registry.h"
#include "src/driver/replay.h"
#include "src/trace/synthetic.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Quantile p50 = Percentile(&hundred, 0.5);
  Expect(Near(p50.value, 50) && p50.samples == 100 && p50.valid, "p50 of 1..100 is 50, n=100");
  const Quantile p99 = Percentile(&hundred, 0.99);
  Expect(Near(p99.value, 99) && !p99.valid, "p99 of 100 samples has 1 beyond it: not valid");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Quantile q = Percentile(&thousand, 0.99);
  Expect(Near(q.value, 990) && q.samples == 1000 && q.valid, "p99 of 1..1000 is 990, valid");
  std::vector<double> empty;
  const Quantile e = Percentile(&empty, 0.5);
  Expect(e.samples == 0 && !e.valid && e.value == 0, "empty sample");
  Expect(Near(Median({3, 1, 2}), 2), "median of three");
  Expect(Near(Median({4, 1, 3, 2}), 2), "median of four is the lower middle");
  const double reference = ReferenceSeconds();
  Expect(reference > 0 && reference < 10, "the host-speed reference takes a measurable time");
}

struct FakeClock {
  static uint64_t now;
  static uint64_t Now() { return now; }
};
uint64_t FakeClock::now = 0;

void TestOpWindows() {
  std::vector<double> out;
  BasicOpWindows<FakeClock> windows(4, &out);
  // 17 ops, 10 ns apart, except that op 7 takes 50 ns: the first op only starts the clock, so
  // windows close at ops 5, 9, 13 and 17.
  for (int op = 1; op <= 17; ++op) {
    FakeClock::now += op == 7 ? 50 : 10;
    windows.Op();
  }
  Expect(out.size() == 4, "17 ops in windows of 4 give 4 windows");
  if (out.size() == 4) {
    Expect(Near(out[0], 10) && Near(out[1], 20) && Near(out[2], 10) && Near(out[3], 10),
           "window means are ns per op, the slow op lands in the second window");
  }
}

void TestSpans() {
  SpanRecorder rec;
  Expect(rec.Begin("off") == -1 && rec.spans().empty(), "a disabled recorder records nothing");
  const int64_t root = rec.Add({"pass", 0, 100, -1, 7});
  const int64_t a = rec.Add({"core.plan", 10, 40, root, 7});
  const int64_t b = rec.Add({"replay.run", 50, 90, root, 7});
  rec.Add({"allocators.teardown", 60, 70, b, 7});
  rec.Add({"core.plan", 0, 5, -1, 8});  // another run
  const std::vector<double> self = rec.SelfNs();
  Expect(Near(self[static_cast<size_t>(root)], 30) && Near(self[static_cast<size_t>(a)], 30) &&
             Near(self[static_cast<size_t>(b)], 30) && Near(self[3], 10),
         "self time is duration minus direct children");
  const auto layers = rec.LayerSelfNs(7);
  Expect(layers.size() == 4 && Near(layers.at("harness"), 30) && Near(layers.at("core"), 30) &&
             Near(layers.at("replay"), 30) && Near(layers.at("allocators"), 10),
         "layer self time sums one run's spans by name prefix");
  double total = 0;
  for (const auto& [layer, ns] : layers) total += ns;
  Expect(Near(total, 100), "layer self times account for the root span exactly");

  SpanRecorder live;
  live.set_enabled(true);
  live.set_run(3);
  const int64_t outer = live.Begin("pass");
  const int64_t inner = live.Begin("core.plan");
  live.End(inner);
  const int64_t next = live.Begin("replay.run");
  live.End(next);
  live.End(outer);
  Expect(live.spans().size() == 3 && live.spans()[1].parent == outer &&
             live.spans()[2].parent == outer && live.spans()[0].parent == -1 &&
             live.spans()[1].run == 3,
         "Begin nests under the innermost open span");
  Expect(live.spans()[0].end_ns >= live.spans()[2].end_ns &&
             live.spans()[1].start_ns >= live.spans()[0].start_ns,
         "children lie inside their parent");
}

void TestAllocators() {
  for (const stalloc::SyntheticMix mix :
       {stalloc::SyntheticMix::kStorm, stalloc::SyntheticMix::kTraining,
        stalloc::SyntheticMix::kServing}) {
    stalloc::SyntheticSpec spec;
    spec.mix = mix;
    spec.num_ops = 20000;
    spec.seed = 7;
    const stalloc::Trace trace = stalloc::BuildSyntheticTrace(spec);
    const uint64_t peak = PeakLiveBytes(stalloc::TraceCursor(trace));
    const std::string label = stalloc::SyntheticMixName(mix);
    Expect(peak > 0, label + ": trace has live bytes");

    std::vector<double> windows;
    std::vector<std::string> errors;
    NullAllocator null_alloc;
    TimedAllocator timed_null(&null_alloc, &windows);
    Expect(!stalloc::ReplayTrace(trace, &timed_null).oom, label + ": null replays");
    CheckAfterReplay(&null_alloc, nullptr, peak, 0, &errors);
    BumpAllocator bump;
    TimedAllocator timed_bump(&bump, &windows);
    Expect(!stalloc::ReplayTrace(trace, &timed_bump).oom, label + ": bump replays");
    CheckAfterReplay(&bump, nullptr, peak, 0, &errors);
    const uint64_t ops = stalloc::TraceCursor(trace).num_ops();
    Expect(windows.size() == 2 * ((ops - 1) / kOpWindow),
           label + ": each replay fills (ops - 1) / window op windows");
    for (const std::string& e : errors) Expect(false, label + ": " + e);

    // A real kind passes the same checks, and the checks can fail.
    uint64_t digests[2] = {0, 0};
    for (int rep = 0; rep < 2; ++rep) {
      stalloc::SimDevice device(80ull << 30);
      auto alloc = stalloc::AllocatorRegistry::Global().Create("torch-caching", &device);
      TimedAllocator timed(alloc.get(), &windows);
      stalloc::ReplayTrace(trace, &timed);
      digests[rep] = timed.digest();
      std::vector<std::string> real_errors;
      CheckAfterReplay(alloc.get(), &device, peak, 0, &real_errors);
      alloc.reset();
      CheckDeviceEmpty("torch-caching", device, &real_errors);
      for (const std::string& e : real_errors) Expect(false, label + ": " + e);
    }
    Expect(digests[0] == digests[1], label + ": one trace, one kind, one placement digest");
    Expect(digests[0] != timed_bump.digest() && timed_bump.digest() != timed_null.digest(),
           label + ": the digest depends on the placements");

    std::vector<std::string> must_fail;
    BumpAllocator other;
    TimedAllocator timed_other(&other, &windows);
    stalloc::ReplayTrace(trace, &timed_other);
    CheckAfterReplay(&other, nullptr, peak + 1, 0, &must_fail);
    Expect(must_fail.size() == 1, label + ": a wrong peak is reported");
    stalloc::SimDevice held(80ull << 30);
    auto leaked = stalloc::AllocatorRegistry::Global().Create("native", &held);
    leaked->Malloc(4096);
    CheckDeviceEmpty("native", held, &must_fail);
    Expect(must_fail.size() == 2, label + ": a live device allocation is reported");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestOpWindows();
  perfbench::TestSpans();
  perfbench::TestAllocators();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
