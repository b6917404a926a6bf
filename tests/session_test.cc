// Session/ExperimentSpec: every spec axis runs on pinned seeds to pinned numbers — literal Ma,
// Mr, device API and release calls and summaries per axis, and the cluster axis bit-identical
// to RunCluster — so a change to the pipeline can never move a bench's numbers silently.

#include "src/api/session.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/registry.h"
#include "src/api/serializers.h"
#include "src/api/spec.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/units.h"
#include "src/trainsim/model_config.h"

namespace stalloc {
namespace {

TrainConfig SmallTrain() {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  return c;
}

ExperimentOptions SmallOptions() {
  ExperimentOptions opt;
  opt.capacity_bytes = 16ull * GiB;
  return opt;
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.allocated_peak, b.allocated_peak);
  EXPECT_EQ(a.reserved_peak, b.reserved_peak);
  EXPECT_EQ(a.memory_efficiency, b.memory_efficiency);  // bitwise: same replay, same division
  EXPECT_EQ(a.fragmentation_bytes, b.fragmentation_bytes);
  EXPECT_EQ(a.device_api_calls, b.device_api_calls);
  EXPECT_EQ(a.device_release_calls, b.device_release_calls);
  EXPECT_EQ(a.Summary(), b.Summary());
}

// The outcome of one replay, as literal values.
struct Pinned {
  uint64_t allocated_peak;
  uint64_t reserved_peak;
  uint64_t device_api_calls;
  uint64_t device_release_calls;
  const char* summary;
};

void ExpectPinned(const ExperimentResult& r, const Pinned& want) {
  EXPECT_EQ(r.allocated_peak, want.allocated_peak) << r.allocator;
  EXPECT_EQ(r.reserved_peak, want.reserved_peak) << r.allocator;
  EXPECT_EQ(r.device_api_calls, want.device_api_calls) << r.allocator;
  EXPECT_EQ(r.device_release_calls, want.device_release_calls) << r.allocator;
  EXPECT_EQ(r.Summary(), want.summary) << r.allocator;
}

TEST(Session, TrainRankNumbersArePinned) {
  const struct {
    const char* alloc;
    Pinned want;
  } cases[] = {
      {"torch-caching",
       {4914260224, 5775556608, 73, 0,
        "E= 85.1%  Ma=4.58 GiB  Mr=5.38 GiB  frag=821.40 MiB  releases=0"}},
      {"stalloc",
       {4914260224, 4914260480, 1, 0,
        "E=100.0%  Ma=4.58 GiB  Mr=4.58 GiB  frag=256 B  releases=0"}},
  };
  for (const auto& c : cases) {
    ExperimentSpec spec;
    spec.axis = WorkloadAxis::kTrainRank;
    spec.model = "gpt2";
    spec.train = SmallTrain();
    spec.train.rank = 1;
    spec.options = SmallOptions();

    Session session;
    RunRecord rec = session.RunOne(spec, c.alloc);

    ASSERT_TRUE(rec.train_rank.has_value()) << c.alloc;
    EXPECT_EQ(rec.train_rank->allocator, c.alloc);
    ExpectPinned(*rec.train_rank, c.want);
    // The envelope's common fields mirror the payload exactly.
    EXPECT_EQ(rec.allocated_peak, rec.train_rank->allocated_peak) << c.alloc;
    EXPECT_EQ(rec.reserved_peak, rec.train_rank->reserved_peak) << c.alloc;
    EXPECT_EQ(rec.memory_efficiency, rec.train_rank->memory_efficiency) << c.alloc;
    EXPECT_EQ(rec.status, RunStatus::kOk) << c.alloc;
    EXPECT_EQ(rec.run_seed, spec.options.run_seed) << c.alloc;
  }
}

TEST(Session, ConfigTagMatchesApplyConfigTag) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.config_tag = "R";
  spec.options = SmallOptions();

  Session session;
  RunRecord rec = session.RunOne(spec, "torch-caching");
  ASSERT_TRUE(rec.train_rank.has_value());
  ExpectPinned(*rec.train_rank,
               {4454881536, 4676648960, 33, 0,
                "E= 95.3%  Ma=4.15 GiB  Mr=4.36 GiB  frag=211.49 MiB  releases=0"});

  ExperimentSpec tagged = spec;
  tagged.config_tag.clear();
  tagged.train = ApplyConfigTag(SmallTrain(), "R");
  RunRecord explicit_rec = session.RunOne(tagged, "torch-caching");
  ASSERT_TRUE(explicit_rec.train_rank.has_value());
  ExpectBitIdentical(*rec.train_rank, *explicit_rec.train_rank);
}

TEST(Session, TrainJobNumbersArePinned) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainJob;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.options = SmallOptions();

  Session session;
  RunRecord rec = session.RunOne(spec, "torch-caching");

  ASSERT_TRUE(rec.job.has_value());
  ASSERT_EQ(rec.job->ranks.size(), 2u);
  ExpectPinned(rec.job->ranks[0],
               {5376936192, 6236930048, 122, 0,
                "E= 86.2%  Ma=5.01 GiB  Mr=5.81 GiB  frag=820.15 MiB  releases=0"});
  ExpectPinned(rec.job->ranks[1],
               {4914260224, 5775556608, 73, 0,
                "E= 85.1%  Ma=4.58 GiB  Mr=5.38 GiB  frag=821.40 MiB  releases=0"});
  EXPECT_EQ(rec.job->Summary(),
            "worst E=85.1%  max Mr=5.81 GiB (rank 0)  total Mr=11.19 GiB  releases=0");
  EXPECT_EQ(rec.reserved_peak, 6236930048u);
  EXPECT_EQ(rec.memory_efficiency, rec.job->ranks[1].memory_efficiency);
  EXPECT_EQ(rec.memory_efficiency, rec.job->worst_efficiency);
}

TEST(Session, ServingNumbersArePinned) {
  const struct {
    const char* alloc;
    Pinned want;
    const char* serve_summary;
  } cases[] = {
      {"paged-kv",
       {1640583168, 1715900416, 87, 39,
        "E= 95.6%  Ma=1.53 GiB  Mr=1.60 GiB  frag=71.83 MiB  releases=39"},
       "E= 95.6%  Ma=1.53 GiB  Mr=1.60 GiB  frag=71.83 MiB  releases=39  preempt=0 "
       "tokens=7244 batch=22"},
      {"stalloc",
       {1640583168, 1671860224, 43, 0,
        "E= 98.1%  Ma=1.53 GiB  Mr=1.56 GiB  frag=29.83 MiB  releases=0"},
       "E= 98.1%  Ma=1.53 GiB  Mr=1.56 GiB  frag=29.83 MiB  releases=0  preempt=0 "
       "tokens=7244 batch=22"},
  };
  for (const auto& c : cases) {
    ExperimentSpec spec;
    spec.axis = WorkloadAxis::kServing;
    spec.model = "gpt2";
    spec.scenario = "chat";
    spec.serve_requests = 24;
    spec.options = SmallOptions();
    spec.engine.kv_budget_bytes = 2ull * GiB;

    Session session;
    RunRecord rec = session.RunOne(spec, c.alloc);

    ASSERT_TRUE(rec.serve.has_value()) << c.alloc;
    ExpectPinned(rec.serve->replay, c.want);
    EXPECT_EQ(rec.serve->trace_events, 1780u) << c.alloc;
    EXPECT_EQ(rec.serve->serve.preemptions, 0u) << c.alloc;
    EXPECT_EQ(rec.serve->serve.tokens_generated, 7036u) << c.alloc;
    EXPECT_EQ(rec.serve->Summary(), c.serve_summary) << c.alloc;
  }
}

TEST(Session, ClusterMatchesRunClusterBitForBit) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.policy = "first-fit";
  spec.options.capacity_bytes = 16ull * GiB;
  spec.options.run_seed = 7;
  spec.cluster.num_jobs = 4;
  spec.cluster.serve_requests = 16;

  Session session;
  RunRecord rec = session.RunOne(spec, "torch-caching");

  FleetConfig fleet;
  fleet.device_capacities = {16ull * GiB, 16ull * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = "torch-caching";
  const std::vector<ClusterJob> jobs = GenerateClusterWorkload(spec.cluster, 7);
  ClusterResult direct = RunCluster(fleet, jobs);

  ASSERT_TRUE(rec.cluster.has_value());
  const ClusterResult& via = *rec.cluster;
  EXPECT_EQ(via.num_jobs, direct.num_jobs);
  EXPECT_EQ(via.completed, direct.completed);
  EXPECT_EQ(via.rejected_upfront, direct.rejected_upfront);
  EXPECT_EQ(via.rejected_oom, direct.rejected_oom);
  EXPECT_EQ(via.oom_events, direct.oom_events);
  EXPECT_EQ(via.requeues, direct.requeues);
  EXPECT_EQ(via.makespan, direct.makespan);
  EXPECT_EQ(via.queue_wait_p99, direct.queue_wait_p99);
  EXPECT_EQ(via.fleet_avg_utilization, direct.fleet_avg_utilization);
  EXPECT_EQ(via.serve_slo_attainment, direct.serve_slo_attainment);
  ASSERT_EQ(via.devices.size(), direct.devices.size());
  for (size_t d = 0; d < direct.devices.size(); ++d) {
    EXPECT_EQ(via.devices[d].peak_used, direct.devices[d].peak_used);
    EXPECT_EQ(via.devices[d].memory_efficiency, direct.devices[d].memory_efficiency);
    EXPECT_EQ(via.devices[d].device_api_calls, direct.devices[d].device_api_calls);
  }
  EXPECT_EQ(via.Summary(), direct.Summary());
  EXPECT_EQ(rec.oom_events, direct.oom_events);
  EXPECT_EQ(rec.slo_attainment, direct.serve_slo_attainment);
}

TEST(Session, CapacityListBuildsHeterogeneousFleet) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kCluster;
  spec.policy = "best-fit";
  spec.devices = 3;
  spec.device_capacities = {16ull * GiB, 16ull * GiB, 24ull * GiB};
  spec.options.run_seed = 7;
  spec.cluster.num_jobs = 10;

  Session session;
  RunRecord rec = session.RunOne(spec, "gmlake");

  FleetConfig fleet;
  fleet.device_capacities = spec.device_capacities;
  fleet.policy = SchedulerPolicy::kBestFit;
  fleet.allocator = "gmlake";
  ClusterResult direct = RunCluster(fleet, GenerateClusterWorkload(spec.cluster, 7));

  ASSERT_TRUE(rec.cluster.has_value());
  ASSERT_EQ(rec.cluster->devices.size(), 3u);
  EXPECT_EQ(rec.cluster->devices[2].capacity, 24ull * GiB);
  EXPECT_EQ(rec.cluster->Digest(), direct.Digest());
  EXPECT_EQ(rec.cluster->Digest(), "67562a2eefc01221");
  ASSERT_EQ(rec.cluster->jobs.size(), 10u);
  EXPECT_EQ(rec.cluster->jobs[0].shape, "serve[gpt2 chat n48]");
}

TEST(Session, RepeatBumpsRunSeedOnly) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "qwen1.5-moe";  // MoE: run-seed changes routed expert sizes, so seeds matter
  spec.train = SmallTrain();
  spec.train.parallel.ep = 4;
  spec.options = SmallOptions();
  spec.options.capacity_bytes = 32ull * GiB;

  Session session;
  RunRecord r1 = session.RunOne(spec, "torch-caching", /*repeat=*/1);
  EXPECT_EQ(r1.run_seed, spec.options.run_seed + 1);
  EXPECT_EQ(r1.profile_seed, spec.options.profile_seed);
  ASSERT_TRUE(r1.train_rank.has_value());
  EXPECT_EQ(r1.status, RunStatus::kOom);
  ExpectPinned(*r1.train_rank, {28977725440, 29290921984, 205, 0, "OOM"});

  // Repeat 1 is exactly repeat 0 of the bumped run seed.
  ExperimentSpec bumped = spec;
  bumped.options.run_seed += 1;
  RunRecord direct = session.RunOne(bumped, "torch-caching");
  ASSERT_TRUE(direct.train_rank.has_value());
  ExpectBitIdentical(*r1.train_rank, *direct.train_rank);
}

TEST(Session, RunCoversAllocatorsTimesRepeats) {
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.train.num_microbatches = 2;
  spec.options = SmallOptions();
  spec.allocators = {"torch-caching", "native"};
  spec.repeats = 2;

  Session session;
  const std::vector<RunRecord> records = session.Run(spec);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].allocator, "torch-caching");
  EXPECT_EQ(records[0].repeat, 0);
  EXPECT_EQ(records[1].allocator, "torch-caching");
  EXPECT_EQ(records[1].repeat, 1);
  EXPECT_EQ(records[2].allocator, "native");
  EXPECT_EQ(records[3].run_seed, spec.options.run_seed + 1);
}

TEST(Session, ValidateRejectsBadSpecs) {
  std::string error;
  ExperimentSpec spec;
  spec.allocators = {"no-such-allocator"};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("no-such-allocator"), std::string::npos);

  spec = ExperimentSpec{};
  spec.model = "no-such-model";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kServing;
  spec.scenario = "no-such-scenario";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.policy = "no-such-policy";
  EXPECT_FALSE(Session::Validate(spec, &error));

  // STAlloc cannot front a shared cluster device — the scheduler is its cluster entry point.
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.allocators = {"stalloc"};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("plan"), std::string::npos);

  // Training-shape typos must fail here, not CHECK-abort inside the workload builder.
  spec = ExperimentSpec{};
  spec.train.parallel.pp = 0;
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.train.num_microbatches = -1;
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kTrainRank;
  spec.train.rank = 5;  // pp defaults to 1
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.config_tag = "XX";
  EXPECT_FALSE(Session::Validate(spec, &error));

  spec = ExperimentSpec{};
  spec.repeats = 0;
  EXPECT_FALSE(Session::Validate(spec, &error));

  // A capacity list must name every device, and only a cluster has devices.
  spec = ExperimentSpec{};
  spec.axis = WorkloadAxis::kCluster;
  spec.devices = 2;
  spec.device_capacities = {16ull * GiB, 16ull * GiB, 24ull * GiB};
  EXPECT_FALSE(Session::Validate(spec, &error));
  EXPECT_NE(error.find("3 capacities for 2 devices"), std::string::npos) << error;
  spec.devices = 3;
  EXPECT_TRUE(Session::Validate(spec, &error)) << error;
  spec.axis = WorkloadAxis::kTrainRank;
  EXPECT_FALSE(Session::Validate(spec, &error));

  // And the defaults are valid for every axis.
  for (WorkloadAxis axis : AllWorkloadAxes()) {
    spec = ExperimentSpec{};
    spec.axis = axis;
    EXPECT_TRUE(Session::Validate(spec, &error)) << WorkloadAxisName(axis) << ": " << error;
  }
}

// Registers an extra kind into the Global() registry; declared after every test whose
// expectations could observe it (none here enumerate the registry, but keep it late anyway).
TEST(Session, ExternallyRegisteredKindRunsLikeItsDelegate) {
  AllocatorRegistry::Global().Register(
      {"session-test-external", /*requires_plan=*/false,
       [](SimDevice* device, const AllocatorOptions& options) {
         return AllocatorRegistry::Global().Create("torch-caching", device, options);
       },
       /*options_help=*/""});
  ExperimentSpec spec;
  spec.axis = WorkloadAxis::kTrainRank;
  spec.model = "gpt2";
  spec.train = SmallTrain();
  spec.options = SmallOptions();
  spec.allocators = {"session-test-external"};
  std::string error;
  ASSERT_TRUE(Session::Validate(spec, &error)) << error;

  Session session;
  RunRecord external = session.RunOne(spec, "session-test-external");
  RunRecord builtin = session.RunOne(spec, "torch-caching");
  ASSERT_TRUE(external.train_rank.has_value());
  ASSERT_TRUE(builtin.train_rank.has_value());
  EXPECT_EQ(external.allocator, "session-test-external");
  EXPECT_EQ(external.train_rank->allocator, "session-test-external");

  // Everything but the name (and the wall-clock phase timings) equals the delegate's record.
  Json external_json = ToJson(external);
  Json builtin_json = ToJson(builtin);
  for (Json* j : {&external_json, &builtin_json}) {
    j->Set("allocator", nullptr);
    j->Set("phases", nullptr);
  }
  EXPECT_EQ(external_json.Dump(), builtin_json.Dump());
  ExperimentResult renamed = *external.train_rank;
  renamed.allocator = builtin.train_rank->allocator;
  ExpectBitIdentical(renamed, *builtin.train_rank);
}

TEST(Session, AxisNameRoundTrip) {
  for (WorkloadAxis axis : AllWorkloadAxes()) {
    const auto parsed = ParseWorkloadAxis(WorkloadAxisName(axis));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, axis);
  }
  EXPECT_EQ(ParseWorkloadAxis("no-such-axis"), std::nullopt);
}

}  // namespace
}  // namespace stalloc
