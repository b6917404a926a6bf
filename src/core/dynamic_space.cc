#include "src/core/dynamic_space.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

uint64_t DynamicReusableSpace::TotalReusableBytes() const {
  uint64_t total = 0;
  for (const auto& [key, set] : regions) {
    total += set.TotalLength();
  }
  return total;
}

namespace {

// The complement of the union of `occupied` within [0, pool_size), by sort and merge.
IntervalSet FreeWithin(std::vector<Interval>* occupied, uint64_t pool_size) {
  std::sort(occupied->begin(), occupied->end(),
            [](const Interval& x, const Interval& y) { return x.lo < y.lo; });
  std::vector<Interval> free;
  uint64_t cursor = 0;
  for (const Interval& iv : *occupied) {
    if (cursor >= pool_size) {
      break;
    }
    if (iv.lo > cursor) {
      free.push_back({cursor, std::min(iv.lo, pool_size)});
    }
    cursor = std::max(cursor, iv.hi);
  }
  if (cursor < pool_size) {
    free.push_back({cursor, pool_size});
  }
  return IntervalSet(std::move(free));
}

}  // namespace

DynamicReusableSpace LocateDynamicSpace(const Trace& trace, const StaticPlan& plan) {
  DynamicReusableSpace space;

  // Collect the HomoLayer groups and the matcher table.
  std::vector<const MemoryEvent*> dynamic_events;
  for (const auto& e : trace.events()) {
    if (e.dyn) {
      dynamic_events.push_back(&e);
    }
  }
  std::sort(dynamic_events.begin(), dynamic_events.end(),
            [](const MemoryEvent* a, const MemoryEvent* b) { return a->ts < b->ts; });
  for (const auto* e : dynamic_events) {
    STALLOC_CHECK(e->ls != kInvalidLayer && e->le != kInvalidLayer);
    space.regions.emplace(std::make_pair(e->ls, e->le), IntervalSet{});
    space.expected_le[e->ls].push_back(e->le);
  }
  if (space.regions.empty()) {
    return space;
  }

  // Each group's window [start, end), visited in start order.
  struct Window {
    LogicalTime start;
    LogicalTime end;
    IntervalSet* region;
  };
  std::vector<Window> windows;
  windows.reserve(space.regions.size());
  for (auto& [key, region] : space.regions) {
    const LayerInfo& a = trace.layer(key.first);
    const LayerInfo& b = trace.layer(key.second);
    windows.push_back({a.start, std::max(b.end, a.start + 1), &region});
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& x, const Window& y) { return x.start < y.start; });

  std::vector<const PlanDecision*> decisions;
  decisions.reserve(plan.decisions.size());
  for (const auto& d : plan.decisions) {
    decisions.push_back(&d);
  }
  std::sort(decisions.begin(), decisions.end(),
            [](const PlanDecision* a, const PlanDecision* b) { return a->event.ts < b->event.ts; });

  // One sweep: `live` holds the decisions allocated at or before the window start and still
  // live there (ts <= start < te), as a min-heap on te so expired ones drop off the top. A
  // window's occupied set is `live` plus the decisions allocated inside it (start < ts < end).
  auto later_end = [](const PlanDecision* a, const PlanDecision* b) {
    return a->event.te > b->event.te;
  };
  std::vector<const PlanDecision*> live;
  std::vector<Interval> occupied;
  size_t next = 0;
  for (const Window& win : windows) {
    for (; next < decisions.size() && decisions[next]->event.ts <= win.start; ++next) {
      live.push_back(decisions[next]);
      std::push_heap(live.begin(), live.end(), later_end);
    }
    while (!live.empty() && live.front()->event.te <= win.start) {
      std::pop_heap(live.begin(), live.end(), later_end);
      live.pop_back();
    }
    occupied.clear();
    for (const PlanDecision* d : live) {
      occupied.push_back({d->addr, d->end_addr()});
    }
    for (size_t i = next; i < decisions.size() && decisions[i]->event.ts < win.end; ++i) {
      if (decisions[i]->event.te > win.start) {
        occupied.push_back({decisions[i]->addr, decisions[i]->end_addr()});
      }
    }
    *win.region = FreeWithin(&occupied, plan.pool_size);
  }
  return space;
}

}  // namespace stalloc
