#include "src/core/phase_group.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace stalloc {
namespace {

MemoryEvent Ev(uint64_t id, uint64_t size, LogicalTime ts, LogicalTime te, PhaseId ps,
               PhaseId pe) {
  MemoryEvent e;
  e.id = id;
  e.size = size;
  e.ts = ts;
  e.te = te;
  e.ps = ps;
  e.pe = pe;
  return e;
}

bool ItemsConflict(const PlanDecision& a, const PlanDecision& b) {
  const bool time = a.event.ts < b.event.te && b.event.ts < a.event.te;
  const bool addr = a.addr < b.end_addr() && b.addr < a.end_addr();
  return time && addr;
}

void ExpectNoConflicts(const LocalPlan& plan) {
  for (size_t i = 0; i < plan.items.size(); ++i) {
    for (size_t j = i + 1; j < plan.items.size(); ++j) {
      EXPECT_FALSE(ItemsConflict(plan.items[i], plan.items[j]))
          << "items " << i << " and " << j << " conflict";
    }
  }
}

TEST(PackGroup, OverlappingEventsStackContiguously) {
  // Three fully-overlapping events: footprint must be the padded sum.
  std::vector<MemoryEvent> events = {Ev(0, 1024, 0, 10, 0, 1), Ev(1, 2048, 0, 10, 0, 1),
                                     Ev(2, 512, 0, 10, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u + 2048u + 512u);
  ExpectNoConflicts(plan);
  EXPECT_DOUBLE_EQ(plan.Tmp(), 1.0);  // no bubbles: all live the whole span
}

TEST(PackGroup, DisjointEventsShareAddresses) {
  // Sequential (transient-style) events of equal size reuse the same slot.
  std::vector<MemoryEvent> events = {Ev(0, 1024, 0, 2, 0, 0), Ev(1, 1024, 2, 4, 0, 0),
                                     Ev(2, 1024, 4, 6, 0, 0)};
  LocalPlan plan = PackGroup(events, 0, 0);
  EXPECT_EQ(plan.footprint, 1024u);
  for (const auto& item : plan.items) {
    EXPECT_EQ(item.addr, 0u);
  }
  ExpectNoConflicts(plan);
}

TEST(PackGroup, PadsSizesToPlanAlign) {
  std::vector<MemoryEvent> events = {Ev(0, 100, 0, 5, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.items[0].padded_size, kPlanAlign);
  EXPECT_EQ(plan.footprint, kPlanAlign);
}

TEST(PackGroup, PartialOverlapUsesGaps) {
  // e0 [0,4), e1 [4,8) can share; e2 [2,6) overlaps both and must go above.
  std::vector<MemoryEvent> events = {Ev(0, 512, 0, 4, 0, 1), Ev(1, 512, 4, 8, 0, 1),
                                     Ev(2, 512, 2, 6, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u);
  ExpectNoConflicts(plan);
}

TEST(Tmp, ReflectsBubbles) {
  // One event of size 512 living half the span within a footprint of 512: TMP = 0.5.
  std::vector<MemoryEvent> events = {Ev(0, 512, 0, 5, 0, 1), Ev(1, 512, 5, 10, 0, 1)};
  LocalPlan plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 512u);  // disjoint -> shared slot
  EXPECT_DOUBLE_EQ(plan.Tmp(), 1.0);

  // Same two events but overlapping one tick: footprint 1024, bubbles appear.
  events = {Ev(0, 512, 0, 6, 0, 1), Ev(1, 512, 5, 10, 0, 1)};
  plan = PackGroup(events, 0, 1);
  EXPECT_EQ(plan.footprint, 1024u);
  EXPECT_NEAR(plan.Tmp(), (512.0 * 6 + 512.0 * 5) / (1024.0 * 10), 1e-9);
}

TEST(FusePlans, InsertsSmallIntoGapsWithoutGrowth) {
  // Big plan: one long-lived block [0,10) of 2048 and one late block [6,10) of 1024 stacked
  // above it. Small plan: a transient [1,3) of 1024 — fits exactly into the late block's slot
  // while that block is not yet live.
  LocalPlan big = PackGroup({Ev(0, 2048, 0, 10, 0, 3), Ev(1, 1024, 6, 10, 2, 3)}, 0, 3);
  ASSERT_EQ(big.footprint, 3072u);
  LocalPlan small = PackGroup({Ev(2, 1024, 1, 3, 0, 0)}, 0, 0);

  LocalPlan fused = FusePlans(big, small);
  EXPECT_EQ(fused.items.size(), 3u);
  EXPECT_EQ(fused.footprint, 3072u);  // no growth: reused the idle gap
  ExpectNoConflicts(fused);
}

TEST(FusePlans, StacksWhenNoGapExists) {
  // Everything overlaps: the small plan's item cannot reuse anything.
  LocalPlan big = PackGroup({Ev(0, 2048, 0, 10, 0, 1)}, 0, 1);
  LocalPlan small = PackGroup({Ev(1, 1024, 2, 8, 1, 1)}, 1, 1);
  LocalPlan fused = FusePlans(big, small);
  EXPECT_EQ(fused.footprint, 3072u);
  ExpectNoConflicts(fused);
}

TEST(FusePlans, PreservesItemCountAndIds) {
  Rng rng(7);
  std::vector<MemoryEvent> a_events;
  std::vector<MemoryEvent> b_events;
  for (uint64_t i = 0; i < 20; ++i) {
    const LogicalTime ts = rng.NextBelow(50);
    a_events.push_back(Ev(i, 512 * (1 + rng.NextBelow(4)), ts, ts + 1 + rng.NextBelow(30), 0, 1));
  }
  for (uint64_t i = 0; i < 15; ++i) {
    const LogicalTime ts = 50 + rng.NextBelow(50);
    b_events.push_back(
        Ev(100 + i, 512 * (1 + rng.NextBelow(4)), ts, ts + 1 + rng.NextBelow(20), 1, 2));
  }
  LocalPlan a = PackGroup(a_events, 0, 1);
  LocalPlan b = PackGroup(b_events, 1, 2);
  LocalPlan fused = FusePlans(a, b);
  EXPECT_EQ(fused.items.size(), 35u);
  EXPECT_EQ(fused.ps, 0);
  EXPECT_EQ(fused.pe, 2);
  ExpectNoConflicts(fused);
}

TEST(BuildPhaseGroups, GroupsByPhasePair) {
  std::vector<MemoryEvent> events = {
      Ev(0, 512, 0, 10, 0, 1), Ev(1, 512, 1, 9, 0, 1),   // group (0,1)
      Ev(2, 512, 12, 14, 2, 2), Ev(3, 512, 14, 16, 2, 2)  // group (2,2)
  };
  auto plans = BuildPhaseGroups(events, /*enable_fusion=*/false);
  EXPECT_EQ(plans.size(), 2u);
}

TEST(BuildPhaseGroups, FusionAcceptsTransientIntoScoped) {
  // Scoped group (phase 0 -> phase 1): two blocks alive [0,20) and [10, 20).
  // Transient group (0,0): short-lived blocks early in phase 0 that fit exactly into the
  // address range of the late scoped block before it comes alive.
  std::vector<MemoryEvent> events;
  events.push_back(Ev(0, 4096, 0, 20, 0, 1));
  events.push_back(Ev(1, 4096, 10, 20, 0, 1));
  // Transients, each 1 tick, within [1, 8): they can all share the late block's future slot.
  for (uint64_t i = 0; i < 6; ++i) {
    events.push_back(Ev(2 + i, 4096, 1 + i, 2 + i, 0, 0));
  }
  auto unfused = BuildPhaseGroups(events, /*enable_fusion=*/false);
  EXPECT_EQ(unfused.size(), 2u);
  auto fused = BuildPhaseGroups(events, /*enable_fusion=*/true);
  ASSERT_EQ(fused.size(), 1u) << "fusion should merge the transient group into the scoped group";
  EXPECT_EQ(fused[0].items.size(), 8u);
  EXPECT_EQ(fused[0].footprint, 8192u) << "transients must reuse the late block's address range";
  ExpectNoConflicts(fused[0]);
}

TEST(BuildPhaseGroups, FusionRejectsWhenWasteful) {
  // Two groups that fully overlap in time: fusing cannot reuse anything and only concatenates
  // footprints — the TMP criterion must reject (Fig. 7 right).
  std::vector<MemoryEvent> events = {
      Ev(0, 4096, 0, 10, 0, 1),  // group (0,1)
      Ev(1, 4096, 0, 10, 1, 1),  // group (1,1): same lifespan, adjacent phases
  };
  auto plans = BuildPhaseGroups(events, /*enable_fusion=*/true);
  EXPECT_EQ(plans.size(), 2u);
}

// Reference for BuildPhaseGroups' indexed fusion: an O(P^2) loop that restarts a scan over every
// plan after each accepted fusion. Counts accepted fusions and the fusions that
// moved the survivor's start phase (the fused-in plan started earlier).
struct FusionCounts {
  int fusions = 0;
  int ps_moves = 0;
};

std::vector<LocalPlan> ReferencePhaseGroups(const std::vector<MemoryEvent>& events,
                                            FusionCounts* counts) {
  std::map<std::pair<PhaseId, PhaseId>, std::vector<MemoryEvent>> groups;
  for (const auto& e : events) {
    groups[{e.ps, e.pe}].push_back(e);
  }
  std::vector<LocalPlan> plans;
  for (auto& [key, group] : groups) {
    plans.push_back(PackGroup(std::move(group), key.first, key.second));
  }
  std::sort(plans.begin(), plans.end(),
            [](const LocalPlan& x, const LocalPlan& y) { return x.ts < y.ts; });
  std::vector<bool> dead(plans.size(), false);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    bool fused_any = true;
    while (fused_any) {
      fused_any = false;
      for (size_t j = 0; j < plans.size(); ++j) {
        if (j == i || dead[j]) {
          continue;
        }
        if (plans[i].pe != plans[j].ps || plans[i].pe == kInvalidPhase) {
          continue;
        }
        LocalPlan fused = FusePlans(plans[i], plans[j]);
        const double wa_num = plans[i].TmpNumerator() + plans[j].TmpNumerator();
        const double wa_den = plans[i].TmpDenominator() + plans[j].TmpDenominator();
        const double weighted_avg = wa_den <= 0 ? 1.0 : wa_num / wa_den;
        if (fused.Tmp() > weighted_avg) {
          ++counts->fusions;
          counts->ps_moves += fused.ps != plans[i].ps;
          plans[i] = std::move(fused);
          dead[j] = true;
          fused_any = true;
          break;
        }
      }
    }
  }
  std::vector<LocalPlan> out;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!dead[i]) {
      out.push_back(std::move(plans[i]));
    }
  }
  return out;
}

void ExpectSamePlans(const std::vector<LocalPlan>& got, const std::vector<LocalPlan>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    const LocalPlan& g = got[p];
    const LocalPlan& w = want[p];
    EXPECT_EQ(g.footprint, w.footprint) << "plan " << p;
    EXPECT_EQ(g.ts, w.ts) << "plan " << p;
    EXPECT_EQ(g.te, w.te) << "plan " << p;
    EXPECT_EQ(g.ps, w.ps) << "plan " << p;
    EXPECT_EQ(g.pe, w.pe) << "plan " << p;
    ASSERT_EQ(g.items.size(), w.items.size()) << "plan " << p;
    for (size_t k = 0; k < g.items.size(); ++k) {
      const PlanDecision& a = g.items[k];
      const PlanDecision& b = w.items[k];
      EXPECT_EQ(a.addr, b.addr) << "plan " << p << " item " << k;
      EXPECT_EQ(a.padded_size, b.padded_size) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.id, b.event.id) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.size, b.event.size) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.ts, b.event.ts) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.te, b.event.te) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.ps, b.event.ps) << "plan " << p << " item " << k;
      EXPECT_EQ(a.event.pe, b.event.pe) << "plan " << p << " item " << k;
    }
  }
}

// Mixed-phase events whose phases do not follow time order, so a plan starting at another
// plan's end phase may start earlier in time and pull the fused start phase back.
std::vector<MemoryEvent> MixedPhaseEvents(uint64_t seed) {
  Rng rng(seed);
  const PhaseId phases = static_cast<PhaseId>(4 + rng.NextBelow(5));
  std::vector<MemoryEvent> events;
  const int n = 40 + static_cast<int>(rng.NextBelow(80));
  for (int i = 0; i < n; ++i) {
    const PhaseId ps = static_cast<PhaseId>(rng.NextBelow(static_cast<uint64_t>(phases)));
    const PhaseId pe = std::min<PhaseId>(phases - 1, ps + static_cast<PhaseId>(rng.NextBelow(3)));
    const LogicalTime ts = rng.NextBelow(120);
    events.push_back(Ev(static_cast<uint64_t>(i), 512 * (1 + rng.NextBelow(6)), ts,
                        ts + 1 + rng.NextBelow(rng.NextBelow(2) == 0 ? 4 : 60), ps, pe));
  }
  return events;
}

TEST(BuildPhaseGroups, IndexedFusionMatchesFullRescan) {
  FusionCounts counts;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::vector<MemoryEvent> events = MixedPhaseEvents(seed);
    ExpectSamePlans(BuildPhaseGroups(events), ReferencePhaseGroups(events, &counts));
  }
  EXPECT_GT(counts.fusions, 0) << "the inputs must exercise accepted fusions";
  EXPECT_GT(counts.ps_moves, 0) << "the inputs must exercise a start phase moving earlier";
}

TEST(BuildPhaseGroups, ChainFusesEarlierStartingGroup) {
  // B = (0,1) has a bubble at [4096, 8192) during [10, 20). A = (1,1) starts one tick before B,
  // so it sorts first, and its transients fill that bubble: B absorbs A and takes A's start
  // phase 1, moving buckets. C = (3,1), later still, has a bubble that fits all of A+B; it finds
  // A+B only under its new start phase, and the chain takes phase 1 again.
  std::vector<MemoryEvent> events;
  events.push_back(Ev(0, 4096, 10, 40, 0, 1));
  events.push_back(Ev(1, 4096, 20, 40, 0, 1));
  for (uint64_t t = 9; t < 20; ++t) {
    events.push_back(Ev(2 + t, 4096, t, t + 1, 1, 1));
  }
  events.push_back(Ev(30, 8192, 12, 60, 3, 1));
  events.push_back(Ev(31, 8192, 45, 60, 3, 1));
  FusionCounts counts;
  const std::vector<LocalPlan> want = ReferencePhaseGroups(events, &counts);
  EXPECT_EQ(counts.fusions, 2);
  EXPECT_EQ(counts.ps_moves, 2);
  ExpectSamePlans(BuildPhaseGroups(events), want);
}

// Property: packing any random event set never produces conflicting placements.
class PackGroupPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackGroupPropertyTest, NeverConflicts) {
  Rng rng(GetParam());
  std::vector<MemoryEvent> events;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const LogicalTime ts = rng.NextBelow(200);
    events.push_back(Ev(static_cast<uint64_t>(i), 512 * (1 + rng.NextBelow(8)), ts,
                        ts + 1 + rng.NextBelow(100), 0, 1));
  }
  LocalPlan plan = PackGroup(events, 0, 1);
  ExpectNoConflicts(plan);
  // Footprint is at least the peak concurrent padded bytes (lower bound).
  EXPECT_GE(plan.footprint, StaticPlan::PeakPaddedBytes(plan.items) == 0
                                ? 0
                                : StaticPlan::PeakPaddedBytes(plan.items));
  EXPECT_LE(plan.Tmp(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackGroupPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace stalloc
