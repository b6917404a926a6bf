#include "src/core/compaction.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/planner.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

PlanDecision Dec(uint64_t id, uint64_t size, LogicalTime ts, LogicalTime te, uint64_t addr) {
  PlanDecision d;
  d.event.id = id;
  d.event.size = size;
  d.event.ts = ts;
  d.event.te = te;
  d.addr = addr;
  d.padded_size = PlanPaddedSize(size);
  return d;
}

TEST(Compaction, EmptyPlanIsNoop) {
  CompactionResult r = CompactPlan(StaticPlan{});
  EXPECT_EQ(r.plan.pool_size, 0u);
  EXPECT_EQ(r.moves, 0u);
}

TEST(Compaction, LowersFloatingBlock) {
  // A block parked needlessly high comes down to offset 0.
  StaticPlan plan;
  plan.decisions.push_back(Dec(0, 512, 0, 10, 4096));
  plan.pool_size = 4608;
  CompactionResult r = CompactPlan(plan);
  EXPECT_EQ(r.plan.decisions[0].addr, 0u);
  EXPECT_EQ(r.plan.pool_size, 512u);
  EXPECT_EQ(r.moves, 1u);
}

TEST(Compaction, RespectsTimeConflicts) {
  // Two overlapping blocks cannot share; two disjoint ones collapse onto offset 0.
  StaticPlan plan;
  plan.decisions.push_back(Dec(0, 512, 0, 10, 0));
  plan.decisions.push_back(Dec(1, 512, 5, 15, 1024));   // overlaps 0: stays above
  plan.decisions.push_back(Dec(2, 512, 20, 30, 2048));  // disjoint: drops to 0
  plan.pool_size = 4096;
  CompactionResult r = CompactPlan(plan);
  std::string error;
  EXPECT_TRUE(r.plan.Check(&error)) << error;
  EXPECT_EQ(r.plan.pool_size, 1024u);
  // Decision order is preserved; find event 2 and check it dropped.
  for (const auto& d : r.plan.decisions) {
    if (d.event.id == 2) {
      EXPECT_EQ(d.addr, 0u);
    }
  }
}

TEST(Compaction, NeverIncreasesPool) {
  Rng rng(99);
  StaticPlan plan;
  uint64_t top = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const LogicalTime ts = rng.NextBelow(500);
    const uint64_t size = 512 * (1 + rng.NextBelow(16));
    // Stack everything disjointly in address space (valid but wasteful).
    plan.decisions.push_back(Dec(i, size, ts, ts + 1 + rng.NextBelow(100), top));
    top += PlanPaddedSize(size);
  }
  plan.pool_size = top;
  plan.Validate();
  CompactionResult r = CompactPlan(plan);
  EXPECT_LE(r.plan.pool_size, plan.pool_size);
  EXPECT_GE(r.plan.pool_size, StaticPlan::PeakPaddedBytes(plan.decisions));
  std::string error;
  EXPECT_TRUE(r.plan.Check(&error)) << error;
}

TEST(Compaction, SynthesizedPlansAreAlreadyTight) {
  // The fast synthesizer should leave (almost) nothing for the slow baseline to reclaim.
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 4;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(Gpt2_345M(), c);
  SynthesisResult s = SynthesizePlan(wb.Build(1));
  CompactionResult r = CompactPlan(s.plan);
  EXPECT_LE(static_cast<double>(s.plan.pool_size),
            static_cast<double>(r.plan.pool_size) * 1.05)
      << "compaction found >5% slack in the synthesized plan";
}

}  // namespace
}  // namespace stalloc
