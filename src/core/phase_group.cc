#include "src/core/phase_group.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/interval/interval_set.h"

namespace stalloc {

namespace {

bool TimeOverlap(const MemoryEvent& a, const MemoryEvent& b) {
  return a.ts < b.te && b.ts < a.te;
}

// Lowest offset >= `from` where `event` fits without conflicting (time && address) with any item
// already in `items`. Scans the address-sorted gaps between time-conflicting items.
uint64_t FirstFitOffset(const std::vector<PlanDecision>& items, const MemoryEvent& event,
                        uint64_t padded, uint64_t from) {
  std::vector<std::pair<uint64_t, uint64_t>> conflicting;
  conflicting.reserve(items.size());
  for (const auto& it : items) {
    if (TimeOverlap(it.event, event)) {
      conflicting.emplace_back(it.addr, it.end_addr());
    }
  }
  std::sort(conflicting.begin(), conflicting.end());
  uint64_t cursor = from;
  for (const auto& [lo, hi] : conflicting) {
    if (hi <= cursor) {
      continue;
    }
    if (lo >= cursor + padded) {
      break;  // gap before this item is big enough
    }
    cursor = hi;
  }
  return cursor;
}

}  // namespace

double LocalPlan::TmpNumerator() const {
  double num = 0;
  for (const auto& d : items) {
    num += static_cast<double>(d.padded_size) * static_cast<double>(d.event.te - d.event.ts);
  }
  return num;
}

double LocalPlan::TmpDenominator() const {
  return static_cast<double>(footprint) * static_cast<double>(te - ts);
}

double LocalPlan::Tmp() const {
  const double den = TmpDenominator();
  return den <= 0 ? 1.0 : TmpNumerator() / den;
}

namespace {

// First-fit packing of `events` in the given order.
LocalPlan PackInOrder(const std::vector<MemoryEvent>& events, PhaseId ps, PhaseId pe) {
  LocalPlan plan;
  plan.ps = ps;
  plan.pe = pe;
  plan.ts = events.front().ts;
  plan.te = events.front().te;
  for (const auto& e : events) {
    PlanDecision d;
    d.event = e;
    d.padded_size = PlanPaddedSize(e.size);
    d.addr = FirstFitOffset(plan.items, e, d.padded_size, 0);
    plan.footprint = std::max(plan.footprint, d.end_addr());
    plan.ts = std::min(plan.ts, e.ts);
    plan.te = std::max(plan.te, e.te);
    plan.items.push_back(d);
  }
  return plan;
}

}  // namespace

LocalPlan PackGroup(std::vector<MemoryEvent> events, PhaseId ps, PhaseId pe) {
  STALLOC_CHECK(!events.empty());
  // Fully-overlapping groups pack the same under any order; mixed-lifespan groups are sensitive
  // to it. Try the classic dynamic-storage-allocation orders and keep the tightest: arrival
  // order (ts), latest-free first (survivors sink to low addresses), and longest-lived first.
  std::sort(events.begin(), events.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.ts != b.ts) {
      return a.ts < b.ts;
    }
    return a.size > b.size;  // larger first at equal start: denser packing
  });
  LocalPlan best = PackInOrder(events, ps, pe);

  std::vector<MemoryEvent> by_end = events;
  std::sort(by_end.begin(), by_end.end(), [](const MemoryEvent& a, const MemoryEvent& b) {
    if (a.te != b.te) {
      return a.te > b.te;
    }
    return a.ts < b.ts;
  });
  if (LocalPlan p = PackInOrder(by_end, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
  }

  std::vector<MemoryEvent> by_duration = std::move(by_end);
  std::sort(by_duration.begin(), by_duration.end(),
            [](const MemoryEvent& a, const MemoryEvent& b) {
              const LogicalTime da = a.te - a.ts;
              const LogicalTime db = b.te - b.ts;
              if (da != db) {
                return da > db;
              }
              return a.ts < b.ts;
            });
  if (LocalPlan p = PackInOrder(by_duration, ps, pe); p.footprint < best.footprint) {
    best = std::move(p);
  }
  return best;
}

LocalPlan FusePlans(const LocalPlan& a, const LocalPlan& b) {
  // Insert the smaller-footprint plan into the larger (paper: assume D_gi.s > D_gj.s).
  const LocalPlan& big = a.footprint >= b.footprint ? a : b;
  const LocalPlan& small = a.footprint >= b.footprint ? b : a;

  LocalPlan fused;
  fused.items = big.items;
  fused.footprint = big.footprint;
  // Phase identity follows the time order of the two groups.
  const LocalPlan& first = a.ts <= b.ts ? a : b;
  const LocalPlan& second = a.ts <= b.ts ? b : a;
  fused.ps = first.ps;
  fused.pe = second.pe;
  fused.ts = std::min(a.ts, b.ts);
  fused.te = std::max(a.te, b.te);

  // Pending items of the smaller group, ordered by start time ("choose the earliest-starting d_j
  // that fits").
  std::vector<PlanDecision> pending = small.items;
  std::sort(pending.begin(), pending.end(), [](const PlanDecision& x, const PlanDecision& y) {
    return x.event.ts < y.event.ts;
  });
  std::vector<bool> placed(pending.size(), false);

  // Per pending item, the union of address ranges blocked by time-conflicting items of the
  // larger plan. Updated as small items are placed. Makes each fit test O(log n).
  std::vector<IntervalSet> blocked(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    for (const auto& it : big.items) {
      if (TimeOverlap(it.event, pending[i].event)) {
        blocked[i].Insert(it.addr, it.end_addr());
      }
    }
  }
  auto note_placement = [&](const PlanDecision& d) {
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!placed[i] && TimeOverlap(d.event, pending[i].event)) {
        blocked[i].Insert(d.addr, d.end_addr());
      }
    }
  };

  // Candidate addresses: the base (0) plus each item address of the larger plan, ascending
  // (paper's "move addr to the next d_i.a").
  std::vector<uint64_t> anchors;
  anchors.push_back(0);
  for (const auto& it : big.items) {
    anchors.push_back(it.addr);
  }
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());

  size_t remaining = pending.size();
  size_t anchor_idx = 0;
  uint64_t addr = 0;
  while (remaining > 0 && addr < fused.footprint) {
    bool placed_here = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (placed[i]) {
        continue;
      }
      PlanDecision d = pending[i];
      if (addr + d.padded_size > fused.footprint) {
        continue;  // would extend the footprint; defer to the stacking fallback
      }
      if (blocked[i].Intersects(addr, addr + d.padded_size)) {
        continue;
      }
      d.addr = addr;
      fused.items.push_back(d);
      placed[i] = true;
      --remaining;
      note_placement(d);
      addr += d.padded_size;
      placed_here = true;
      break;  // restart the earliest-starting scan at the new addr
    }
    if (!placed_here) {
      // Advance to the next anchor beyond the current address.
      while (anchor_idx < anchors.size() && anchors[anchor_idx] <= addr) {
        ++anchor_idx;
      }
      if (anchor_idx >= anchors.size()) {
        break;
      }
      addr = anchors[anchor_idx];
    }
  }

  // Anything that did not fit into the gaps stacks above the footprint: lowest free address
  // within its blocked set, possibly extending the footprint.
  for (size_t i = 0; i < pending.size(); ++i) {
    if (placed[i]) {
      continue;
    }
    PlanDecision d = pending[i];
    // Find the lowest gap of `padded_size` in blocked[i].
    uint64_t cursor = 0;
    for (const auto& iv : blocked[i].ToVector()) {
      if (iv.hi <= cursor) {
        continue;
      }
      if (iv.lo >= cursor + d.padded_size) {
        break;
      }
      cursor = iv.hi;
    }
    d.addr = cursor;
    fused.items.push_back(d);
    fused.footprint = std::max(fused.footprint, d.end_addr());
    placed[i] = true;
    note_placement(d);
  }
  STALLOC_CHECK_EQ(fused.items.size(), a.items.size() + b.items.size());
  return fused;
}

std::vector<LocalPlan> BuildPhaseGroups(const std::vector<MemoryEvent>& static_events,
                                        bool enable_fusion) {
  // Group by the (ps, pe) phase pair.
  std::map<std::pair<PhaseId, PhaseId>, std::vector<MemoryEvent>> groups;
  for (const auto& e : static_events) {
    STALLOC_CHECK(!e.dyn);
    groups[{e.ps, e.pe}].push_back(e);
  }
  std::vector<LocalPlan> plans;
  plans.reserve(groups.size());
  for (auto& [key, events] : groups) {
    plans.push_back(PackGroup(std::move(events), key.first, key.second));
  }
  if (!enable_fusion) {
    return plans;
  }

  // Sequential forward fusion: plans sorted by start time; for each plan, repeatedly try to fuse
  // a plan whose start phase equals this plan's end phase, candidates in ascending index. Chains
  // (F,F)+(F,B)+(B,B) are captured because an accepted fusion extends pe and the scan repeats.
  // The TMP criterion (Fig. 7) decides accept/reject. `by_start` indexes the live plans by start
  // phase, each bucket in ascending index, so a scan visits only the candidates.
  std::sort(plans.begin(), plans.end(),
            [](const LocalPlan& x, const LocalPlan& y) { return x.ts < y.ts; });
  std::map<PhaseId, std::vector<size_t>> by_start;
  for (size_t i = 0; i < plans.size(); ++i) {
    by_start[plans[i].ps].push_back(i);
  }
  auto unindex = [&](PhaseId ps, size_t idx) {
    std::vector<size_t>& bucket = by_start[ps];
    bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), idx));
  };
  std::vector<bool> dead(plans.size(), false);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    bool fused_any = true;
    while (fused_any && plans[i].pe != kInvalidPhase) {
      fused_any = false;
      auto bucket = by_start.find(plans[i].pe);
      if (bucket == by_start.end()) {
        break;
      }
      for (const size_t j : bucket->second) {
        if (j == i) {
          continue;
        }
        LocalPlan fused = FusePlans(plans[i], plans[j]);
        const double wa_num = plans[i].TmpNumerator() + plans[j].TmpNumerator();
        const double wa_den = plans[i].TmpDenominator() + plans[j].TmpDenominator();
        const double weighted_avg = wa_den <= 0 ? 1.0 : wa_num / wa_den;
        if (fused.Tmp() > weighted_avg) {
          unindex(plans[j].ps, j);  // invalidates `bucket`; the scan restarts below
          if (fused.ps != plans[i].ps) {
            unindex(plans[i].ps, i);
            std::vector<size_t>& moved = by_start[fused.ps];
            moved.insert(std::lower_bound(moved.begin(), moved.end(), i), i);
          }
          plans[i] = std::move(fused);
          dead[j] = true;
          fused_any = true;
          break;
        }
      }
    }
  }
  std::vector<LocalPlan> out;
  out.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!dead[i]) {
      out.push_back(std::move(plans[i]));
    }
  }
  return out;
}

}  // namespace stalloc
