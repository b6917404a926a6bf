// perfbench: runs one workload of the layered benchmark in this process and prints its metrics.
//
//   perfbench --workload train|storm|serve --seed N --seconds S --trace 0|1 --workdir DIR
//             [--spans FILE]
//
// Load is a closed loop with one caller: the replay engine issues each allocator op when the
// previous one returns, as a framework's malloc/free does. A run sets its inputs up several
// times (setup_s is the median), then repeats measured passes until S seconds have gone by;
// every timing is a median or percentile over those passes, scaled by the host-speed reference
// timed between them (ReferenceSeconds in harness.h). With --trace 1 the run alternates
// untraced and traced passes, records spans around every call into a layer, runs the per-layer
// probes, and prints the per-layer metrics instead of the end-to-end ones.
//
// The last line of stdout is "PERFBENCH_RESULT <json>"; perfbench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/allocators/registry.h"
#include "src/api/report.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/cluster/sharded_fleet.h"
#include "src/core/phase_group.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/size_group.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/servesim/engine.h"
#include "src/servesim/request_gen.h"
#include "src/telemetry/heap_map.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_v2.h"
#include "src/trainsim/model_config.h"

namespace perfbench {
namespace {

using stalloc::Allocator;
using stalloc::SimDevice;
using stalloc::Trace;
using stalloc::TraceView;

constexpr uint64_t kCapacity = 80ull << 30;  // A800-80G, the repository's default device
constexpr int kSetupReps = 11;
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;
// Sizes: a pass takes 1-2 s on a 4-core x86 host, so a 30 s run gets 15-25 passes.
constexpr uint64_t kStormOps = 500000;
constexpr uint64_t kTrainOps = 250000;
constexpr uint32_t kServeRequests = 8000;
const char* const kServeModel = "llama2-7b";
// The cluster probe (traced serve run): a day of mixed train and serve jobs on a plan-aware fleet.
constexpr int kClusterDevices = 64;
constexpr int kClusterJobs = 96;
constexpr uint64_t kClusterDeviceBytes = 16ull << 30;
// STAlloc on serve is profiled on another day than it replays, so its online dynamic-reuse and
// fallback paths run instead of only the static plan.
uint64_t ServeProfileSeed(uint64_t seed) { return seed + 1000003; }

// Every allocator kind a per-kind metric can name, in report order.
const std::vector<std::string> kAllKinds = {"stalloc", "torch-caching", "torch-expandable",
                                            "gmlake",  "vmm",           "paged-kv"};

struct WorkloadDef {
  std::string name;
  std::vector<std::string> kinds;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"train", {"stalloc", "torch-caching", "vmm"}},
      {"storm", {"torch-caching", "torch-expandable", "gmlake", "vmm"}},
      {"serve", {"paged-kv", "torch-caching", "vmm", "stalloc"}},
  };
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload train|storm|serve --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workdir.empty()) Usage("--workdir is required");
  return args;
}

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------------------------
// Set-up: inputs and the allocators of the first pass
// ---------------------------------------------------------------------------------------------

struct Inputs {
  std::string path;
  TraceView view;
  Trace profile_day;  // serve: the day STAlloc is profiled on
  stalloc::AllocatorOptions options;
  uint64_t peak_live = 0;
};

// One kind's device and (for the baseline kinds) allocator, built before its pass.
struct Slot {
  std::string kind;
  std::unique_ptr<SimDevice> device;
  std::unique_ptr<Allocator> alloc;  // null for stalloc, which is built from the pass's plan
};

std::vector<Slot> BuildSlots(const WorkloadDef& def, const Inputs& in, SpanRecorder* rec) {
  ScopedSpan span(rec, "allocators.construct");
  std::vector<Slot> slots;
  for (const std::string& kind : def.kinds) {
    Slot slot;
    slot.kind = kind;
    slot.device = std::make_unique<SimDevice>(kCapacity);
    if (kind != "stalloc") {
      slot.alloc = stalloc::AllocatorRegistry::Global().Create(kind, slot.device.get(), in.options);
      if (slot.alloc == nullptr) {
        std::fprintf(stderr, "perfbench: cannot construct %s\n", kind.c_str());
        std::exit(1);
      }
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

void Setup(const WorkloadDef& def, uint64_t seed, Inputs* in, SpanRecorder* rec) {
  in->view.Close();
  if (def.name == "serve") {
    const stalloc::ModelConfig model = stalloc::ModelByName(kServeModel);
    stalloc::ServeScenario scenario = stalloc::ChatScenario();
    scenario.num_requests = kServeRequests;
    const stalloc::EngineConfig engine;
    in->options.paged_block_bytes = stalloc::KvBlockBytes(model, engine);
    stalloc::ServeTraceResult day;
    {
      ScopedSpan span(rec, "servesim.build");
      day = stalloc::BuildServeTrace(model, scenario, engine, seed);
    }
    {
      ScopedSpan span(rec, "trace.gen");
      if (!stalloc::WriteTraceV2File(day.trace, in->path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", in->path.c_str());
        std::exit(1);
      }
    }
    ScopedSpan span(rec, "servesim.build");
    in->profile_day =
        stalloc::BuildServeTrace(model, scenario, engine, ServeProfileSeed(seed)).trace;
  } else {
    stalloc::SyntheticSpec spec;
    spec.mix = def.name == "train" ? stalloc::SyntheticMix::kTraining
                                   : stalloc::SyntheticMix::kStorm;
    spec.num_ops = def.name == "train" ? kTrainOps : kStormOps;
    spec.seed = seed;
    ScopedSpan span(rec, "trace.gen");
    if (!stalloc::GenerateSyntheticV2File(spec, in->path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", in->path.c_str());
      std::exit(1);
    }
  }
  ScopedSpan span(rec, "trace.open");
  stalloc::TraceIoError err;
  if (!in->view.Open(in->path, &err)) {
    std::fprintf(stderr, "perfbench: cannot open %s: %s\n", in->path.c_str(),
                 err.ToString().c_str());
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------------------------
// Measured pass
// ---------------------------------------------------------------------------------------------

struct KindPass {
  std::string kind;
  double replay_s = 0;
  uint64_t ops = 0;
  uint64_t replay_device_calls = 0;  // device API calls made during the replay itself
  uint64_t digest = 0;
  double efficiency = 0;
  uint64_t oom = 0;
  stalloc::DeviceApiCounters counters;  // whole lifetime of the kind's device in this pass
  // stalloc only
  double plan_s = 0;
  double profile_s = 0;
  stalloc::PlanStats plan_stats;
  stalloc::STAllocBreakdown breakdown;
  uint64_t mallocs = 0;
};

struct PassResult {
  double run_s = 0;
  double scale = 1;  // kReferenceNominalS over the reference seconds measured around the pass
  std::vector<KindPass> kinds;
  std::vector<double> windows;  // ns/op of each op window, all kinds in order
  std::map<std::string, double> probe_ns;  // traced passes: ProbeKinds right after the pass
};

Trace ProfileInput(const WorkloadDef& def, const Inputs& in) {
  return def.name == "serve" ? in.profile_day : in.view.Materialize();
}

PassResult RunPass(const WorkloadDef& def, const Inputs& in, std::vector<Slot> slots,
                   SpanRecorder* rec, std::vector<std::string>* errors) {
  PassResult pass;
  const uint64_t pass_start = NowNs();
  ScopedSpan pass_span(rec, "pass");
  for (Slot& slot : slots) {
    KindPass kp;
    kp.kind = slot.kind;
    std::unique_ptr<stalloc::STAllocAllocator> planned;
    uint64_t retained = 0;
    if (slot.kind == "stalloc") {
      const uint64_t plan_start = NowNs();
      stalloc::ProfileResult profile;
      {
        ScopedSpan span(rec, "core.profile");
        Trace input;
        {
          ScopedSpan copy(rec, "trace.materialize");
          input = ProfileInput(def, in);
        }
        profile = stalloc::ProfileTrace(std::move(input), kCapacity);
      }
      kp.profile_s = Seconds(plan_start, NowNs());
      if (!profile.feasible) {
        errors->push_back("stalloc: profiled trace is infeasible on the device");
        continue;
      }
      stalloc::SynthesisResult synthesis;
      {
        ScopedSpan span(rec, "core.plan");
        stalloc::PlanSynthesizerConfig config;
        config.validate = false;  // validated below through the non-aborting check
        synthesis = stalloc::SynthesizePlan(profile.trace, config);
      }
      {
        ScopedSpan span(rec, "core.validate");
        std::string error;
        if (!synthesis.plan.Check(&error)) {
          errors->push_back("stalloc: plan fails StaticPlan validation: " + error);
        }
      }
      kp.plan_s = Seconds(plan_start, NowNs());
      kp.plan_stats = synthesis.stats;
      ScopedSpan span(rec, "allocators.construct");
      planned = std::make_unique<stalloc::STAllocAllocator>(
          slot.device.get(), std::move(synthesis.plan), std::move(synthesis.dyn_space));
      if (!planned->Init()) {
        errors->push_back("stalloc: static pool does not fit on the device");
        continue;
      }
      retained = planned->pool_size();
    }
    Allocator* alloc = planned != nullptr ? planned.get() : slot.alloc.get();
    TimedAllocator timed(alloc, &pass.windows);
    const uint64_t calls_before = slot.device->counters().TotalCalls();
    stalloc::ReplayResult replay;
    const uint64_t replay_start = NowNs();
    {
      ScopedSpan span(rec, "replay.run");
      replay = stalloc::ReplayTrace(in.view, &timed);
    }
    kp.replay_s = Seconds(replay_start, NowNs());
    kp.replay_device_calls = slot.device->counters().TotalCalls() - calls_before;
    kp.ops = replay.num_mallocs + replay.num_frees;
    kp.mallocs = replay.num_mallocs;
    kp.digest = timed.digest();
    kp.efficiency = replay.memory_efficiency;
    kp.oom = alloc->stats().num_oom;
    if (planned != nullptr) {
      kp.breakdown = planned->breakdown();
    }
    {
      ScopedSpan span(rec, "allocators.teardown");
      CheckAfterReplay(alloc, slot.device.get(), in.peak_live, retained, errors);
      kp.counters = slot.device->counters();
      planned.reset();
      slot.alloc.reset();
      CheckDeviceEmpty(slot.kind, *slot.device, errors);
    }
    pass.kinds.push_back(std::move(kp));
  }
  pass.run_s = Seconds(pass_start, NowNs());
  return pass;
}

// ---------------------------------------------------------------------------------------------
// Probes (traced run only): one layer added at a time over the workload's own trace
// ---------------------------------------------------------------------------------------------

// Runs `fn` `reps` times inside a span named `name`; returns the median span duration in ns.
double ProbeNs(SpanRecorder* rec, const std::string& name, int reps,
               const std::function<void()>& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const int64_t index = rec->Begin(name);
    fn();
    rec->End(index);
    const Span& s = rec->spans()[static_cast<size_t>(index)];
    ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return Median(ns);
}

// Replays the workload's trace through `alloc` behind the same wrapper as a measured pass.
void ProbeReplay(const Inputs& in, Allocator* alloc, std::vector<std::string>* errors) {
  std::vector<double> windows;
  TimedAllocator timed(alloc, &windows);
  if (stalloc::ReplayTrace(in.view, &timed).oom) {
    errors->push_back(std::string(alloc->name()) + ": probe replay failed a malloc");
  }
}

// Each kind of the workload replayed once on its own, timing the replay alone; run right after
// each traced pass, in the same host phase, it gives the per-op cost that pass's replay spans
// are split by. `plan` is the plan the stalloc kind replays. Returns ns per op by kind.
std::map<std::string, double> ProbeKinds(const WorkloadDef& def, const Inputs& in,
                                         const stalloc::SynthesisResult& plan, SpanRecorder* rec,
                                         std::vector<std::string>* errors) {
  std::map<std::string, double> ns_per_op;
  const double ops = static_cast<double>(in.view.num_ops());
  for (const std::string& kind : def.kinds) {
    SimDevice device(kCapacity);
    std::unique_ptr<Allocator> alloc;
    if (kind == "stalloc") {
      auto planned =
          std::make_unique<stalloc::STAllocAllocator>(&device, plan.plan, plan.dyn_space);
      if (!planned->Init()) {
        errors->push_back("stalloc: probe pool does not fit on the device");
        continue;
      }
      alloc = std::move(planned);
    } else {
      alloc = stalloc::AllocatorRegistry::Global().Create(kind, &device, in.options);
    }
    ns_per_op[kind] =
        ProbeNs(rec, "allocators.replay_probe", 1, [&] { ProbeReplay(in, alloc.get(), errors); }) /
        ops;
  }
  return ns_per_op;
}

// The fields the replay engine reads per op, read through the cursor alone.
uint64_t DecodeAll(const stalloc::TraceCursor& tc) {
  uint64_t sink = 0;
  for (uint64_t i = 0; i < tc.num_ops(); ++i) {
    const uint64_t id = tc.OpEventId(i);
    sink += tc.OpTime(i) + tc.EventSize(id);
    if (!tc.OpIsFree(i)) {
      sink += static_cast<uint64_t>(tc.EventDyn(id)) + static_cast<uint64_t>(tc.EventPs(id)) +
              static_cast<uint64_t>(tc.EventLs(id)) + tc.EventStream(id);
    }
  }
  return sink;
}

struct ClusterProbe {
  double generate_ms = 0;
  double serial_ms = 0;
  double run_ms = 0;  // the sharded run
  stalloc::ClusterResult result;
};

struct Probes {
  double decode_ns = 0;    // per op
  double null_ns = 0;      // per op, engine over the null allocator
  double bump_ns = 0;      // per op, engine over the AllocatorBase bump allocator
  double gpu_ns_per_call = 0;
  // planner stages, ms
  double phase_groups_ms = 0, size_groups_ms = 0, greedy_ms = 0, drs_ms = 0, validate_ms = 0;
  // telemetry: emission as a ratio over the sinks-off replay of torch-caching, each export in
  // ms, and the heap map as a ratio over emission alone
  double tel_emission = 0, tel_metrics_export_ms = 0, tel_trace_export_ms = 0, tel_heapmap = 0;
  ClusterProbe cluster;  // serve only
};

// The cluster module: one generated day run serially (RunCluster with one worker) and sharded
// (RunShardedCluster over up to four workers). Both runs must give one ClusterResult::Digest().
ClusterProbe RunClusterProbe(uint64_t seed, SpanRecorder* rec, std::vector<std::string>* errors) {
  ClusterProbe c;
  stalloc::ClusterWorkloadConfig config;  // two diurnal days of arrivals, as bench_cluster's scale
  config.num_jobs = kClusterJobs;
  config.mean_interarrival = 2 * 86400 / kClusterJobs;
  config.min_interarrival = 0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period = 86400;
  config.micro_batches = {1, 2};
  config.num_microbatches = 2;
  config.max_iterations = 2;
  config.serve_requests = 32;
  std::vector<stalloc::ClusterJob> jobs;
  c.generate_ms = ProbeNs(rec, "cluster.generate", 3, [&] {
                    jobs = stalloc::GenerateClusterWorkload(config, seed);
                  }) * 1e-6;
  stalloc::FleetConfig fleet;
  fleet.device_capacities.assign(kClusterDevices, kClusterDeviceBytes);
  fleet.policy = stalloc::SchedulerPolicy::kPlanAware;
  fleet.workers = 1;
  stalloc::ClusterResult serial;
  c.serial_ms = ProbeNs(rec, "cluster.run_serial", 1, [&] {
                  serial = stalloc::RunCluster(fleet, jobs);
                }) * 1e-6;
  fleet.workers = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  c.run_ms = ProbeNs(rec, "cluster.run_sharded", 1, [&] {
               c.result = stalloc::RunShardedCluster(fleet, jobs);
             }) * 1e-6;
  if (serial.Digest() != c.result.Digest()) {
    errors->push_back("cluster: serial digest " + serial.Digest() + " != sharded digest " +
                      c.result.Digest() + " over " + std::to_string(fleet.workers) + " workers");
  }
  if (c.result.num_jobs != jobs.size() || c.result.ops_replayed == 0) {
    errors->push_back("cluster: the day replayed nothing");
  }
  return c;
}

Probes RunProbes(const WorkloadDef& def, uint64_t seed, const Inputs& in, SpanRecorder* rec,
                 std::vector<std::string>* errors) {
  Probes p;
  const stalloc::TraceCursor tc(in.view);
  const double ops = static_cast<double>(tc.num_ops());
  auto replay_into = [&](Allocator* alloc) { ProbeReplay(in, alloc, errors); };

  static volatile uint64_t sink = 0;  // keeps the decode loop's result observable
  p.decode_ns = ProbeNs(rec, "trace.decode_probe", 5, [&] { sink = DecodeAll(tc); }) / ops;
  p.null_ns = ProbeNs(rec, "replay.null_probe", 5, [&] {
                NullAllocator null_alloc;
                replay_into(&null_alloc);
                CheckAfterReplay(&null_alloc, nullptr, in.peak_live, 0, errors);
              }) / ops;
  p.bump_ns = ProbeNs(rec, "allocators.bump_probe", 5, [&] {
                BumpAllocator bump;
                replay_into(&bump);
                CheckAfterReplay(&bump, nullptr, in.peak_live, 0, errors);
              }) / ops;
  uint64_t native_calls = 0;
  const double native_ns = ProbeNs(rec, "gpu.native_probe", 3, [&] {
                  SimDevice device(kCapacity);
                  auto native = stalloc::AllocatorRegistry::Global().Create("native", &device);
                  replay_into(native.get());
                  native_calls = device.counters().TotalCalls();
                }) / ops;
  p.gpu_ns_per_call =
      native_calls == 0 ? 0 : (native_ns - p.bump_ns) * ops / static_cast<double>(native_calls);

  if (std::find(def.kinds.begin(), def.kinds.end(), "stalloc") != def.kinds.end()) {
    stalloc::ProfileResult profile = stalloc::ProfileTrace(ProfileInput(def, in), kCapacity);
    const Trace& trace = profile.trace;
    std::vector<stalloc::MemoryEvent> static_events;
    for (const auto& e : trace.events()) {
      if (!e.dyn) static_events.push_back(e);
    }
    std::vector<stalloc::LocalPlan> phase_plans;
    p.phase_groups_ms = ProbeNs(rec, "core.phase_groups", 3, [&] {
                          phase_plans = stalloc::BuildPhaseGroups(static_events);
                        }) * 1e-6;
    std::vector<stalloc::GroupRequest> requests;
    for (size_t i = 0; i < phase_plans.size(); ++i) {
      stalloc::GroupRequest r;
      r.plan_index = i;
      r.size = stalloc::AlignUp(std::max<uint64_t>(phase_plans[i].footprint, 1),
                                stalloc::kPlanAlign);
      r.ts = phase_plans[i].ts;
      r.te = phase_plans[i].te;
      requests.push_back(r);
    }
    p.size_groups_ms =
        ProbeNs(rec, "core.size_groups", 3, [&] { stalloc::PlanGlobally(requests); }) * 1e-6;
    stalloc::PlanSynthesizerConfig on;
    on.validate = false;
    stalloc::PlanSynthesizerConfig off = on;
    off.enable_greedy_refinement = false;
    stalloc::SynthesisResult synthesis;
    const double on_ns = ProbeNs(rec, "core.plan_greedy_on", 3,
                                 [&] { synthesis = stalloc::SynthesizePlan(trace, on); });
    const double off_ns = ProbeNs(rec, "core.plan_greedy_off", 3,
                                  [&] { stalloc::SynthesizePlan(trace, off); });
    p.greedy_ms = (on_ns - off_ns) * 1e-6;
    p.drs_ms = ProbeNs(rec, "core.drs", 3,
                       [&] { stalloc::LocateDynamicSpace(trace, synthesis.plan); }) * 1e-6;
    p.validate_ms = ProbeNs(rec, "core.validate", 3, [&] {
                      std::string error;
                      if (!synthesis.plan.Check(&error)) errors->push_back(error);
                    }) * 1e-6;
  }

  // Telemetry through its public API around a torch-caching replay. SetEnabled(true) is the one
  // runtime switch of every emission point, so the metrics registry and the tracer are always
  // fed together: their emission is one cost, and each sink's own share is its export, timed
  // after an emitting replay. The heap map has a switch of its own (Arm) and is measured as its
  // extra over emission, drain included.
  auto caching_replay = [&] {
    SimDevice device(kCapacity);
    auto alloc = stalloc::AllocatorRegistry::Global().Create("torch-caching", &device);
    replay_into(alloc.get());
  };
  auto emitting_replay = [&] {
    stalloc::telemetry::SetEnabled(true);
    caching_replay();
    stalloc::telemetry::SetEnabled(false);
  };
  auto& registry = stalloc::telemetry::MetricsRegistry::Global();
  auto& tracer = stalloc::telemetry::Tracer::Global();
  auto& heapmap = stalloc::telemetry::HeapMapRecorder::Global();
  const double off_ns = ProbeNs(rec, "telemetry.off_probe", 3, caching_replay);
  std::vector<double> emission_ns, metrics_export_ns, trace_export_ns, heapmap_ns;
  size_t exported = 0;
  for (int i = 0; i < 3; ++i) {
    registry.Reset();
    tracer.Clear();
    emission_ns.push_back(ProbeNs(rec, "telemetry.emission_probe", 1, emitting_replay));
    metrics_export_ns.push_back(ProbeNs(rec, "telemetry.metrics_export", 1, [&] {
      tracer.PublishMetrics();
      exported += registry.ToJson().Dump().size();
    }));
    trace_export_ns.push_back(ProbeNs(rec, "telemetry.trace_export", 1, [&] {
      exported += tracer.ChromeTraceJson().Dump().size();
    }));
  }
  for (int i = 0; i < 3; ++i) {
    tracer.Clear();
    heapmap.Arm(stalloc::telemetry::HeapMapConfig{});
    size_t snapshots = 0;
    heapmap_ns.push_back(ProbeNs(rec, "telemetry.heapmap_probe", 1, [&] {
      emitting_replay();
      snapshots = heapmap.Drain().size();
    }));
    heapmap.Disarm();
    if (snapshots == 0) errors->push_back("telemetry: the armed heap map captured nothing");
  }
  tracer.Clear();
  registry.Reset();
  if (exported == 0) {
    errors->push_back("telemetry sinks exported nothing");
  }
  p.tel_emission = Median(emission_ns) / off_ns;
  p.tel_metrics_export_ms = Median(metrics_export_ns) * 1e-6;
  p.tel_trace_export_ms = Median(trace_export_ns) * 1e-6;
  p.tel_heapmap = Median(heapmap_ns) / Median(emission_ns);

  if (def.name == "serve") {
    p.cluster = RunClusterProbe(seed, rec, errors);
  }
  return p;
}

// ---------------------------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;  // "n=..." for the human table
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& samples = "") {
    metrics_.push_back({name, value, unit, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const KindPass* FindKind(const PassResult& pass, const std::string& kind) {
  for (const KindPass& kp : pass.kinds) {
    if (kp.kind == kind) return &kp;
  }
  return nullptr;
}

uint64_t PeakRssKib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

// The end-to-end metrics, from the untraced passes. Every timing is scaled by its pass's (or
// set-up's) host-speed reference (see ReferenceSeconds); the table also gives the raw medians.
// Window percentiles are taken per pass and summarised by their median over passes, so a burst
// of host interference in one pass cannot move the run's tail.
void ReportEndToEnd(const std::vector<double>& setup_s, const std::vector<double>& setup_scale,
                    std::vector<PassResult>* untraced, Report* report,
                    std::vector<std::string>* errors) {
  std::vector<double> setup, run_s, raw_run_s, mops, raw_mops, p50s, p99s, scales;
  for (size_t i = 0; i < setup_s.size(); ++i) setup.push_back(setup_s[i] * setup_scale[i]);
  size_t windows = 0;
  for (PassResult& pass : *untraced) {
    run_s.push_back(pass.run_s * pass.scale);
    raw_run_s.push_back(pass.run_s);
    scales.push_back(pass.scale);
    double ops = 0, secs = 0;
    for (const KindPass& kp : pass.kinds) {
      ops += static_cast<double>(kp.ops);
      secs += kp.replay_s;
    }
    raw_mops.push_back(ops / secs * 1e-6);
    mops.push_back(raw_mops.back() / pass.scale);
    p50s.push_back(Percentile(&pass.windows, 0.5).value * pass.scale);
    const Quantile p99 = Percentile(&pass.windows, 0.99);
    if (!p99.valid) errors->push_back("too few op windows in a pass for a p99");
    p99s.push_back(p99.value * pass.scale);
    windows += p99.samples;
  }
  std::vector<double> run_sorted = run_s;
  const std::string passes = "n=" + std::to_string(run_s.size()) + " passes";
  const std::string window_samples =
      passes + " x " + std::to_string(windows / run_s.size()) + " windows";
  report->Add("setup_s", Median(setup), "s",
              "n=" + std::to_string(setup.size()) + " set-ups; raw " + Num(Median(setup_s)));
  report->Add("run_s", Median(run_s), "s",
              passes + ", p99 " + Num(Percentile(&run_sorted, 0.99).value) + "; raw " +
                  Num(Median(raw_run_s)));
  report->Add("replay_mops", Median(mops), "Mops/s", passes + "; raw " + Num(Median(raw_mops)));
  report->Add("op_ns_p50", Median(p50s), "ns", window_samples);
  report->Add("op_ns_p99", Median(p99s), "ns", window_samples);
  report->Add("peak_rss_mib", static_cast<double>(PeakRssKib()) / 1024.0, "MiB");
  for (const std::string kind : {"torch-caching", "vmm"}) {
    const KindPass* kp = FindKind(untraced->front(), kind);
    report->Add("efficiency." + kind, kp != nullptr ? kp->efficiency : 0, "ratio");
  }
  std::printf("host-speed scale: median %.4f over %zu passes (reference %.1f ms nominal)\n",
              Median(scales), scales.size(), kReferenceNominalS * 1e3);
}

// Median over set-up repetitions of the time spent in spans called `name`.
double SetupSpanMs(const SpanRecorder& rec, uint64_t setup_run, const std::string& name) {
  std::vector<double> per_rep;
  double acc = 0;
  for (const Span& s : rec.spans()) {
    if (s.run != setup_run) continue;
    if (s.name == name) acc += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    if (s.name == "allocators.construct") {  // the last span of one repetition
      per_rep.push_back(acc);
      acc = 0;
    }
  }
  return Median(per_rep);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// The per-layer metrics, from the set-up spans, the traced passes and the probes.
void ReportPerLayer(const SpanRecorder& rec, uint64_t setup_run, const Probes& probes,
                    const std::vector<PassResult>& untraced,
                    const std::vector<PassResult>& traced,
                    const std::vector<uint64_t>& traced_runs, Report* report,
                    std::vector<std::string>* errors) {
  report->Add("trace.gen_ms", SetupSpanMs(rec, setup_run, "trace.gen"), "ms");
  report->Add("trace.open_ms", SetupSpanMs(rec, setup_run, "trace.open"), "ms");
  report->Add("servesim.build_ms", SetupSpanMs(rec, setup_run, "servesim.build"), "ms");
  report->Add("trace.decode_ns_per_op", probes.decode_ns, "ns");
  report->Add("replay.dispatch_ns_per_op", probes.null_ns - probes.decode_ns, "ns");
  report->Add("allocators.base_ns_per_op", probes.bump_ns - probes.null_ns, "ns");
  report->Add("gpu.ns_per_call", probes.gpu_ns_per_call, "ns");

  // Per kind: policy time (the kind's own replay probes over the bump baseline), and from the
  // traced passes counters and E.
  for (const std::string& kind : kAllKinds) {
    std::vector<double> plan_s, profile_ms, probe_ns;
    const KindPass* last = nullptr;
    for (const PassResult& pass : traced) {
      const auto probed = pass.probe_ns.find(kind);
      if (probed != pass.probe_ns.end()) probe_ns.push_back(probed->second);
      if (const KindPass* kp = FindKind(pass, kind)) {
        plan_s.push_back(kp->plan_s);
        profile_ms.push_back(kp->profile_s * 1e3);
        last = kp;
      }
    }
    const KindPass none;
    const KindPass& kp = last != nullptr ? *last : none;
    report->Add("allocators.policy_ns_per_op." + kind,
                probe_ns.empty() ? 0 : Median(probe_ns) - probes.bump_ns, "ns");
    report->Add("allocators.oom." + kind, static_cast<double>(kp.oom), "count");
    report->Add("gpu.api_calls." + kind, static_cast<double>(kp.counters.TotalCalls()), "count");
    report->Add("gpu.modelled_cost_us." + kind, kp.counters.total_cost_us, "us");
    if (kind != "torch-caching" && kind != "vmm") {
      report->Add("efficiency." + kind, kp.efficiency, "ratio");
    }
    if (kind == "vmm") {
      report->Add("vmm.map_calls", static_cast<double>(kp.counters.mem_map), "count");
      report->Add("vmm.unmap_calls", static_cast<double>(kp.counters.mem_unmap), "count");
    }
    if (kind == "stalloc") {
      const stalloc::PlanStats& st = kp.plan_stats;
      const stalloc::STAllocBreakdown& bd = kp.breakdown;
      report->Add("plan_s", Median(plan_s), "s");
      report->Add("core.profile_ms", Median(profile_ms), "ms");
      report->Add("core.phase_groups_ms", probes.phase_groups_ms, "ms");
      report->Add("core.size_groups_ms", probes.size_groups_ms, "ms");
      report->Add("core.greedy_ms", probes.greedy_ms, "ms");
      report->Add("core.drs_ms", probes.drs_ms, "ms");
      report->Add("core.validate_ms", probes.validate_ms, "ms");
      report->Add("core.plan_efficiency", last != nullptr ? st.PlanEfficiency() : 0, "ratio");
      report->Add("core.phase_groups", static_cast<double>(st.num_phase_groups), "count");
      report->Add("core.fusions", static_cast<double>(st.num_fusions), "count");
      report->Add("core.layers", static_cast<double>(st.num_layers), "count");
      report->Add("core.homolayer_groups", static_cast<double>(st.num_homolayer_groups),
                  "count");
      const double mallocs = static_cast<double>(kp.mallocs);
      const double dyn = static_cast<double>(bd.dynamic_reuse_hits + bd.dynamic_fallbacks);
      report->Add("core.static_hit_ratio",
                  mallocs == 0 ? 0 : static_cast<double>(bd.static_hits) / mallocs, "ratio");
      report->Add("core.dynamic_reuse_ratio",
                  dyn == 0 ? 0 : static_cast<double>(bd.dynamic_reuse_hits) / dyn, "ratio");
      report->Add("core.fallback_bytes", static_cast<double>(bd.fallback_bytes), "bytes");
    }
  }
  report->Add("telemetry.overhead_ratio.emission", probes.tel_emission, "ratio");
  report->Add("telemetry.export_ms.metrics", probes.tel_metrics_export_ms, "ms");
  report->Add("telemetry.export_ms.trace", probes.tel_trace_export_ms, "ms");
  report->Add("telemetry.overhead_ratio.heapmap", probes.tel_heapmap, "ratio");

  const ClusterProbe& cl = probes.cluster;
  const double jobs = static_cast<double>(cl.result.num_jobs);
  report->Add("cluster.generate_ms", cl.generate_ms, "ms");
  report->Add("cluster.run_ms", cl.run_ms, "ms");
  report->Add("cluster.parallel_speedup", cl.run_ms > 0 ? cl.serial_ms / cl.run_ms : 0, "ratio");
  report->Add("cluster.admit_ratio", jobs > 0 ? static_cast<double>(cl.result.admitted) / jobs : 0,
              "ratio");
  report->Add("cluster.requeues", static_cast<double>(cl.result.requeues), "count");
  report->Add("cluster.ops_replayed", static_cast<double>(cl.result.ops_replayed), "count");
  report->Add("cluster.jobs_completed_frac",
              jobs > 0 ? static_cast<double>(cl.result.completed) / jobs : 0, "ratio");
  report->Add("cluster.slo_attainment", jobs > 0 ? cl.result.serve_slo_attainment : 0, "ratio");

  // Self time per layer, mean per traced pass. The spans give every layer but the replay
  // span's insides, which the probes split independently of the span's length: ops x decode to
  // trace, ops x dispatch to replay, device calls x gpu.ns_per_call to gpu, and the rest of the
  // kind's own probed replay (ledger and policy) to allocators. What the probes leave of the
  // span is unattributed, so the layers' sum can miss the pass.
  std::map<std::string, double> self_ns;
  double unattributed_ns = 0;
  std::vector<double> traced_run_s, untraced_run_s;
  for (const PassResult& pass : untraced) untraced_run_s.push_back(pass.run_s);
  for (size_t i = 0; i < traced.size(); ++i) {
    traced_run_s.push_back(traced[i].run_s);
    for (const auto& [layer, ns] : rec.LayerSelfNs(traced_runs[i])) self_ns[layer] += ns;
    for (const KindPass& kp : traced[i].kinds) {
      const auto probed = traced[i].probe_ns.find(kp.kind);
      if (probed == traced[i].probe_ns.end()) continue;  // its probe failed, reported already
      const double ops = static_cast<double>(kp.ops);
      const double span_ns = kp.replay_s * 1e9;
      const double dispatch = ops * (probes.null_ns - probes.decode_ns);
      const double gpu = static_cast<double>(kp.replay_device_calls) * probes.gpu_ns_per_call;
      self_ns["trace"] += ops * probes.decode_ns;
      self_ns["gpu"] += gpu;
      self_ns["allocators"] += ops * (probed->second - probes.null_ns) - gpu;
      self_ns["replay"] -= span_ns - dispatch;
      unattributed_ns += span_ns - ops * probed->second;
    }
  }
  const double passes = static_cast<double>(traced.size());
  double layers_s = 0;
  for (const std::string layer : {"trace", "replay", "allocators", "gpu", "core", "harness"}) {
    const double ms = self_ns[layer] / passes * 1e-6;
    report->Add(layer + ".self_ms", ms, "ms");
    if (layer != "harness") layers_s += ms * 1e-3;
  }
  const double traced_mean = Mean(traced_run_s);
  const double untraced_mean = Mean(untraced_run_s);
  const double unattributed_s = unattributed_ns / passes * 1e-9;
  report->Add("tracing.overhead_ratio", traced_mean / untraced_mean, "ratio");
  report->Add("tracing.accounted_frac", layers_s / untraced_mean, "ratio");
  report->Add("tracing.unattributed_ms", std::fabs(unattributed_s) * 1e3, "ms");
  // The layers must account for the untraced pass within the tracing overhead. Means, because
  // self times add up to a mean pass and medians do not. The allowance adds the measured noise,
  // the untraced passes' range.
  const auto [lo, hi] = std::minmax_element(untraced_run_s.begin(), untraced_run_s.end());
  const double allowance = std::fabs(traced_mean - untraced_mean) + (*hi - *lo);
  const bool within = std::fabs(layers_s - untraced_mean) <= allowance;
  std::printf("accounting: layer self times %s s (unattributed %s s), mean untraced pass %s s, "
              "mean traced pass %s s, allowance %s s (%zu untraced + %zu traced passes): %s\n",
              Num(layers_s).c_str(), Num(unattributed_s).c_str(), Num(untraced_mean).c_str(),
              Num(traced_mean).c_str(), Num(allowance).c_str(), untraced.size(), traced.size(),
              within ? "within the tracing overhead" : "NOT within the tracing overhead");
  if (!within) {
    errors->push_back("per-layer self times " + Num(layers_s) + " s miss the untraced pass " +
                      Num(untraced_mean) + " s by more than the tracing overhead and noise " +
                      Num(allowance) + " s");
  }
}

// The human table, then the machine line run.py reads.
void PrintResult(const Args& args, const Inputs& in, const std::vector<PassResult>& untraced,
                 const std::vector<PassResult>& traced, const Report& report,
                 const std::map<std::string, uint64_t>& digests,
                 const std::vector<std::string>& errors, uint64_t attempted, uint64_t failed) {
  std::printf("workload %s  seed %llu  passes %zu untraced + %zu traced  trace_ops %llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), static_cast<unsigned long long>(in.view.num_ops()));
  std::printf("  pass run_s:");
  for (const PassResult& pass : untraced) std::printf(" %.4f", pass.run_s);
  std::printf("\n");
  for (const KindPass& first : untraced.front().kinds) {
    std::vector<double> replay_s, plan_s;
    for (const PassResult& pass : untraced) {
      if (const KindPass* kp = FindKind(pass, first.kind)) {
        replay_s.push_back(kp->replay_s);
        plan_s.push_back(kp->plan_s);
      }
    }
    std::printf("  kind %-17s replay %.4f s  plan %.4f s (medians)  ops %llu  E %.4f  "
                "device calls %llu\n",
                first.kind.c_str(), Median(replay_s), Median(plan_s),
                static_cast<unsigned long long>(first.ops), first.efficiency,
                static_cast<unsigned long long>(first.counters.TotalCalls()));
  }
  for (const Metric& m : report.metrics()) {
    std::printf("  %-40s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples.c_str());
  }
  // op_fail_ratio is not a result metric (it would read 0); the table shows it.
  std::printf("  %-40s %16.6g          failed %llu of %llu ops\n", "op_fail_ratio",
              attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  for (const auto& [kind, digest] : digests) {
    std::printf("  digest.%-33s %016llx\n", kind.c_str(), static_cast<unsigned long long>(digest));
  }
  for (const std::string& e : errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  stalloc::Json metrics = stalloc::Json::Object();
  for (const Metric& m : report.metrics()) {
    stalloc::Json entry = stalloc::Json::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  stalloc::Json digest_json = stalloc::Json::Object();
  for (const auto& [kind, digest] : digests) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
    digest_json.Set(kind, std::string(hex));
  }
  stalloc::Json errors_json = stalloc::Json::Array();
  for (const std::string& e : errors) errors_json.Add(e);
  const bool correct = errors.empty();
  stalloc::Json result = stalloc::Json::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", correct ? failed : attempted);
  result.Set("seed", args.seed);
  result.Set("metrics", std::move(metrics));
  result.Set("digests", std::move(digest_json));
  result.Set("errors", std::move(errors_json));
  std::string line = result.Dump(0);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  std::printf("PERFBENCH_RESULT %s\n", line.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) Usage("unknown workload (train, storm, serve)");

  SpanRecorder rec;
  rec.set_enabled(args.trace);
  std::vector<std::string> errors;
  Inputs in;
  in.path = args.workdir + "/" + def->name + "-" + std::to_string(args.seed) + "-" +
            std::to_string(getpid()) + ".v2";

  // Set-up, several times; the inputs and allocators of the last repetition are kept. The
  // host-speed reference runs between repetitions and passes, never inside a timed interval.
  std::vector<double> setup_s, setup_scale;
  std::vector<Slot> first_slots;
  const uint64_t setup_run = 1;
  const uint64_t probe_run = 2;  // measured passes use 100 + pass index
  rec.set_run(setup_run);
  double reference = ReferenceSeconds();
  auto scale_since = [&reference]() {
    const double next = ReferenceSeconds();
    const double scale = kReferenceNominalS / ((reference + next) / 2);
    reference = next;
    return scale;
  };
  for (int i = 0; i < kSetupReps; ++i) {
    const uint64_t t0 = NowNs();
    Setup(*def, args.seed, &in, &rec);
    first_slots = BuildSlots(*def, in, &rec);
    setup_s.push_back(Seconds(t0, NowNs()));
    setup_scale.push_back(scale_since());
  }
  in.peak_live = PeakLiveBytes(stalloc::TraceCursor(in.view));
  // The plan the kind probes of a traced run replay for stalloc, as a pass synthesizes it.
  stalloc::SynthesisResult probe_plan;
  const bool plans =
      std::find(def->kinds.begin(), def->kinds.end(), "stalloc") != def->kinds.end();
  if (args.trace && plans) {
    stalloc::PlanSynthesizerConfig config;
    config.validate = false;
    probe_plan = stalloc::SynthesizePlan(
        stalloc::ProfileTrace(ProfileInput(*def, in), kCapacity).trace, config);
  }

  // Measured passes until the time is up. With --trace 1, odd passes are traced.
  std::vector<PassResult> untraced, traced;
  std::vector<uint64_t> traced_runs;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  const int min_untraced = args.trace ? kMinTracedPasses : kMinPasses;
  for (uint64_t p = 0;; ++p) {
    const bool trace_pass = args.trace && p % 2 == 1;
    if (NowNs() >= deadline && static_cast<int>(untraced.size()) >= min_untraced &&
        (!args.trace || static_cast<int>(traced.size()) >= kMinTracedPasses) && !trace_pass) {
      break;
    }
    rec.set_enabled(false);
    std::vector<Slot> slots = p == 0 ? std::move(first_slots) : BuildSlots(*def, in, &rec);
    rec.set_enabled(trace_pass);
    rec.set_run(100 + p);
    PassResult pass = RunPass(*def, in, std::move(slots), &rec, &errors);
    pass.scale = scale_since();
    if (trace_pass) {
      rec.set_run(probe_run);
      pass.probe_ns = ProbeKinds(*def, in, probe_plan, &rec, &errors);
      traced.push_back(std::move(pass));
      traced_runs.push_back(100 + p);
    } else {
      untraced.push_back(std::move(pass));
    }
  }

  // Placement digests must agree across every pass of the run.
  std::map<std::string, uint64_t> digests;
  uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& pass : *set) {
      for (const KindPass& kp : pass.kinds) {
        attempted += kp.ops;
        failed += kp.oom;
        auto [it, inserted] = digests.emplace(kp.kind, kp.digest);
        if (!inserted && it->second != kp.digest) {
          errors.push_back(kp.kind + ": placement digest differs between passes");
        }
      }
    }
  }

  Report report;
  if (!args.trace) {
    ReportEndToEnd(setup_s, setup_scale, &untraced, &report, &errors);
  } else {
    rec.set_enabled(true);
    rec.set_run(probe_run);
    const Probes probes = RunProbes(*def, args.seed, in, &rec, &errors);
    ReportPerLayer(rec, setup_run, probes, untraced, traced, traced_runs, &report, &errors);
    if (!args.spans_path.empty() && !rec.WriteJsonLines(args.spans_path)) {
      errors.push_back("cannot write spans to " + args.spans_path);
    }
  }
  PrintResult(args, in, untraced, traced, report, digests, errors, attempted, failed);
  std::remove(in.path.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
