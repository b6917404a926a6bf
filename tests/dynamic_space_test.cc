#include "src/core/dynamic_space.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/planner.h"
#include "src/trainsim/model_config.h"
#include "src/trainsim/workload.h"

namespace stalloc {
namespace {

// Hand-built scenario: one static block occupying [0, 1024) during [0, 10), another occupying
// [1024, 2048) during [20, 30). A dynamic group whose window is [12, 18) must see the whole pool
// as reusable; one whose window is [5, 25) must see nothing.
TEST(DynamicSpace, WindowedComplementOfStaticPlan) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 40});
  LayerId mid_a = t.AddLayer({"mid_a", 12, 15});
  LayerId mid_b = t.AddLayer({"mid_b", 15, 18});
  LayerId wide_a = t.AddLayer({"wide_a", 5, 8});
  LayerId wide_b = t.AddLayer({"wide_b", 22, 25});

  MemoryEvent s1;
  s1.size = 1024;
  s1.ts = 0;
  s1.te = 10;
  s1.ps = p;
  s1.pe = p;
  const uint64_t id1 = t.AddEvent(s1);
  MemoryEvent s2 = s1;
  s2.ts = 20;
  s2.te = 30;
  const uint64_t id2 = t.AddEvent(s2);

  MemoryEvent dyn_mid;
  dyn_mid.size = 256;
  dyn_mid.ts = 13;
  dyn_mid.te = 16;
  dyn_mid.ps = p;
  dyn_mid.pe = p;
  dyn_mid.dyn = true;
  dyn_mid.ls = mid_a;
  dyn_mid.le = mid_b;
  t.AddEvent(dyn_mid);

  MemoryEvent dyn_wide = dyn_mid;
  dyn_wide.ts = 6;
  dyn_wide.te = 24;
  dyn_wide.ls = wide_a;
  dyn_wide.le = wide_b;
  t.AddEvent(dyn_wide);

  StaticPlan plan;
  plan.decisions.push_back({t.event(id1), 0, 1024});
  plan.decisions.push_back({t.event(id2), 1024, 1024});
  plan.pool_size = 2048;

  DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  ASSERT_EQ(space.group_count(), 2u);

  // Window [12, 18): neither static block is live -> the whole pool is reusable.
  const IntervalSet& mid = space.regions.at({mid_a, mid_b});
  EXPECT_EQ(mid.TotalLength(), 2048u);

  // Window [5, 25): overlaps both static lifespans -> nothing reusable.
  const IntervalSet& wide = space.regions.at({wide_a, wide_b});
  EXPECT_EQ(wide.TotalLength(), 0u);
}

TEST(DynamicSpace, ExpectedLeTableFollowsArrivalOrder) {
  Trace t;
  PhaseId p = t.AddPhase({PhaseKind::kForward, 0, 0, 0, 40});
  LayerId l0 = t.AddLayer({"l0", 0, 10});
  LayerId l1 = t.AddLayer({"l1", 10, 20});
  for (int i = 0; i < 3; ++i) {
    MemoryEvent e;
    e.size = 512;
    e.ts = static_cast<LogicalTime>(1 + i);
    e.te = static_cast<LogicalTime>(12 + i);
    e.ps = p;
    e.pe = p;
    e.dyn = true;
    e.ls = l0;
    e.le = i == 1 ? l0 : l1;  // second request frees within its own layer
    t.AddEvent(e);
  }
  StaticPlan plan;
  plan.pool_size = 4096;
  DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  ASSERT_EQ(space.expected_le.at(l0).size(), 3u);
  EXPECT_EQ(space.expected_le.at(l0)[0], l1);
  EXPECT_EQ(space.expected_le.at(l0)[1], l0);
  EXPECT_EQ(space.expected_le.at(l0)[2], l1);
}

// Reference for LocateDynamicSpace's sweep: a direct per-group scan. For each HomoLayer group,
// union every decision whose lifespan meets the window, then complement within the pool.
std::map<std::pair<LayerId, LayerId>, IntervalSet> ReferenceRegions(const Trace& trace,
                                                                     const StaticPlan& plan) {
  std::map<std::pair<LayerId, LayerId>, IntervalSet> regions;
  for (const auto& e : trace.events()) {
    if (!e.dyn || regions.count({e.ls, e.le}) != 0) {
      continue;
    }
    const LogicalTime start = trace.layer(e.ls).start;
    const LogicalTime end = std::max(trace.layer(e.le).end, start + 1);
    IntervalSet occupied;
    for (const auto& d : plan.decisions) {
      if (d.event.ts < end && d.event.te > start) {
        occupied.Insert(d.addr, d.end_addr());
      }
    }
    regions[{e.ls, e.le}] = occupied.ComplementWithin(0, plan.pool_size);
  }
  return regions;
}

void ExpectMatchesReference(const Trace& trace, const StaticPlan& plan) {
  const DynamicReusableSpace space = LocateDynamicSpace(trace, plan);
  const auto want = ReferenceRegions(trace, plan);
  ASSERT_EQ(space.regions.size(), want.size());
  for (const auto& [key, region] : want) {
    ASSERT_EQ(space.regions.count(key), 1u);
    EXPECT_EQ(space.regions.at(key), region)
        << "group (" << key.first << "," << key.second << "): " << space.regions.at(key).ToString()
        << " vs " << region.ToString();
  }
}

MemoryEvent DynEvent(LayerId ls, LayerId le, LogicalTime ts) {
  MemoryEvent e;
  e.size = 512;
  e.ts = ts;
  e.te = ts + 1;
  e.dyn = true;
  e.ls = ls;
  e.le = le;
  return e;
}

PlanDecision Decision(LogicalTime ts, LogicalTime te, uint64_t addr, uint64_t padded) {
  PlanDecision d;
  d.event.ts = ts;
  d.event.te = te;
  d.event.size = padded;
  d.addr = addr;
  d.padded_size = padded;
  return d;
}

// Window [10, 20): a decision allocated at the window start (ts == s) or in its last tick
// (ts == e - 1) occupies its range; one freed at the window start (te == s) or allocated at its
// end (ts == e) does not.
TEST(DynamicSpace, WindowBoundaryTies) {
  Trace t;
  const LayerId a = t.AddLayer({"a", 10, 15});
  const LayerId b = t.AddLayer({"b", 15, 20});
  t.AddEvent(DynEvent(a, b, 11));
  StaticPlan plan;
  plan.decisions.push_back(Decision(10, 11, 0, 512));     // ts == s: occupied
  plan.decisions.push_back(Decision(5, 10, 512, 512));    // te == s: free
  plan.decisions.push_back(Decision(19, 25, 1024, 512));  // ts == e - 1: occupied
  plan.decisions.push_back(Decision(20, 25, 1536, 512));  // ts == e: free
  plan.pool_size = 2048;
  const DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  EXPECT_EQ(space.regions.at({a, b}), IntervalSet({{512, 1024}, {1536, 2048}}));
  ExpectMatchesReference(t, plan);
}

// b.end <= a.start collapses the window to the single tick [a.start, a.start + 1); distinct
// groups with one window share one region.
TEST(DynamicSpace, CollapsedAndSharedWindows) {
  Trace t;
  const LayerId early = t.AddLayer({"early", 0, 4});
  const LayerId late = t.AddLayer({"late", 8, 12});
  const LayerId late_twin = t.AddLayer({"late_twin", 8, 12});
  t.AddEvent(DynEvent(late, early, 9));       // window [8, 9)
  t.AddEvent(DynEvent(late, late, 9));        // window [8, 12)
  t.AddEvent(DynEvent(late_twin, late, 10));  // window [8, 12), another group
  StaticPlan plan;
  plan.decisions.push_back(Decision(0, 8, 0, 512));      // ends as the window opens
  plan.decisions.push_back(Decision(8, 9, 512, 512));    // the collapsed window's one tick
  plan.decisions.push_back(Decision(9, 12, 1024, 512));  // after the collapsed window
  plan.pool_size = 1536;
  const DynamicReusableSpace space = LocateDynamicSpace(t, plan);
  EXPECT_EQ(space.regions.at({late, early}), IntervalSet({{0, 512}, {1024, 1536}}));
  EXPECT_EQ(space.regions.at({late, late}), IntervalSet({{0, 512}}));
  EXPECT_EQ(space.regions.at({late_twin, late}), space.regions.at({late, late}));
  ExpectMatchesReference(t, plan);
}

TEST(DynamicSpace, EmptyStaticPlanWithDynamicEvents) {
  Trace t;
  const LayerId a = t.AddLayer({"a", 0, 5});
  t.AddEvent(DynEvent(a, a, 1));
  StaticPlan plan;
  ExpectMatchesReference(t, plan);
  EXPECT_TRUE(LocateDynamicSpace(t, plan).regions.at({a, a}).empty());
  plan.pool_size = 4096;
  ExpectMatchesReference(t, plan);
  EXPECT_EQ(LocateDynamicSpace(t, plan).regions.at({a, a}), IntervalSet({{0, 4096}}));
}

// Seeded random plans and windows on a short time axis, so ties at every window boundary are
// frequent. Decisions may overlap each other and reach past the pool: the region is a pure set
// function of the plan, whether or not the plan is valid.
TEST(DynamicSpace, SweepMatchesPerGroupScan) {
  int at_start = 0;
  int freed_at_start = 0;
  int in_last_tick = 0;
  int collapsed = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Trace t;
    const int num_layers = 2 + static_cast<int>(rng.NextBelow(10));
    for (int l = 0; l < num_layers; ++l) {
      LayerInfo info;
      info.start = rng.NextBelow(30);
      info.end = rng.NextBelow(4) == 0 ? info.start : info.start + 1 + rng.NextBelow(10);
      if (l > 0 && rng.NextBelow(4) == 0) {
        info = t.layer(static_cast<LayerId>(rng.NextBelow(static_cast<uint64_t>(l))));
      }
      t.AddLayer(info);
    }
    const int num_dyn = 1 + static_cast<int>(rng.NextBelow(12));
    for (int k = 0; k < num_dyn; ++k) {
      t.AddEvent(DynEvent(static_cast<LayerId>(rng.NextBelow(static_cast<uint64_t>(num_layers))),
                          static_cast<LayerId>(rng.NextBelow(static_cast<uint64_t>(num_layers))),
                          rng.NextBelow(40)));
    }
    StaticPlan plan;
    const int num_decisions = static_cast<int>(rng.NextBelow(60));
    for (int k = 0; k < num_decisions; ++k) {
      const LogicalTime ts = rng.NextBelow(40);
      plan.decisions.push_back(Decision(ts, ts + 1 + rng.NextBelow(12), 512 * rng.NextBelow(64),
                                        512 * (1 + rng.NextBelow(8))));
    }
    plan.pool_size = 512 * (40 + rng.NextBelow(32));
    ExpectMatchesReference(t, plan);

    for (const auto& e : t.events()) {
      const LogicalTime s = t.layer(e.ls).start;
      const LogicalTime end = std::max(t.layer(e.le).end, s + 1);
      collapsed += t.layer(e.le).end <= s;
      for (const auto& d : plan.decisions) {
        at_start += d.event.ts == s;
        freed_at_start += d.event.te == s;
        in_last_tick += d.event.ts == end - 1;
      }
    }
  }
  EXPECT_GT(at_start, 0);
  EXPECT_GT(freed_at_start, 0);
  EXPECT_GT(in_last_tick, 0);
  EXPECT_GT(collapsed, 0);
}

// Invariant on real MoE workloads: a group's reusable region never intersects any static
// decision whose lifespan overlaps the group's window.
TEST(DynamicSpace, ReusableRegionsNeverConflictWithStatics) {
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  c.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder wb(Qwen15_MoE_A27B(), c);
  Trace trace = wb.Build(5);
  SynthesisResult r = SynthesizePlan(trace);
  ASSERT_GT(r.dyn_space.group_count(), 0u);

  for (const auto& [key, region] : r.dyn_space.regions) {
    const LayerInfo& a = trace.layer(key.first);
    const LayerInfo& b = trace.layer(key.second);
    for (const auto& d : r.plan.decisions) {
      const bool time_overlap = d.event.ts < b.end && a.start < d.event.te;
      if (time_overlap) {
        EXPECT_FALSE(region.Intersects(d.addr, d.end_addr()))
            << "group (" << key.first << "," << key.second << ") reuses addresses of live static "
            << "event " << d.event.id;
      }
    }
  }
}

TEST(DynamicSpace, RecomputeYieldsMoreReusableSpaceThanNoRecompute) {
  // §9.4: with recomputation, dynamic requests live within one layer and static activations are
  // short-lived, so idle windows in the static pool are plentiful. Without recomputation the
  // lifespans fully overlap and little can be reused.
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  WorkloadBuilder plain(Qwen15_MoE_A27B(), c);
  TrainConfig rc = c;
  rc.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder recompute(Qwen15_MoE_A27B(), rc);

  SynthesisResult r_plain = SynthesizePlan(plain.Build(5));
  SynthesisResult r_rc = SynthesizePlan(recompute.Build(5));
  // Normalize by pool size x group count to compare densities.
  const double density_plain =
      static_cast<double>(r_plain.dyn_space.TotalReusableBytes()) /
      (static_cast<double>(r_plain.plan.pool_size) *
       static_cast<double>(std::max<size_t>(1, r_plain.dyn_space.group_count())));
  const double density_rc =
      static_cast<double>(r_rc.dyn_space.TotalReusableBytes()) /
      (static_cast<double>(r_rc.plan.pool_size) *
       static_cast<double>(std::max<size_t>(1, r_rc.dyn_space.group_count())));
  EXPECT_GT(density_rc, density_plain);
}

TEST(DynamicSpace, MoreHomoLayerGroupsWithoutRecompute) {
  // Table 2 discussion: without recomputation, (ls, le) pairs span forward->backward layers and
  // there are more distinct groups than with recomputation (where ls == le).
  TrainConfig c;
  c.parallel.pp = 2;
  c.num_microbatches = 4;
  c.micro_batch_size = 2;
  WorkloadBuilder plain(Qwen15_MoE_A27B(), c);
  TrainConfig rc = c;
  rc.opt.recompute = RecomputeMode::kFull;
  WorkloadBuilder recompute(Qwen15_MoE_A27B(), rc);
  SynthesisResult r_plain = SynthesizePlan(plain.Build(5));
  SynthesisResult r_rc = SynthesizePlan(recompute.Build(5));
  EXPECT_GT(r_plain.dyn_space.group_count(), 0u);
  EXPECT_GT(r_rc.dyn_space.group_count(), 0u);
  EXPECT_GE(r_plain.dyn_space.group_count(), r_rc.dyn_space.group_count());
}

}  // namespace
}  // namespace stalloc
