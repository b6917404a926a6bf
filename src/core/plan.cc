#include "src/core/plan.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace stalloc {

namespace {

// Sweep over alloc/free points; at each malloc, the new address range must not intersect any
// live range. Returns an error description or empty string.
std::string SweepCheck(const std::vector<PlanDecision>& decisions, uint64_t pool_size) {
  struct Point {
    LogicalTime time;
    bool is_alloc;
    size_t idx;
  };
  std::vector<Point> points;
  points.reserve(decisions.size() * 2);
  for (size_t i = 0; i < decisions.size(); ++i) {
    const PlanDecision& d = decisions[i];
    if (d.padded_size != PlanPaddedSize(d.event.size)) {
      std::ostringstream os;
      os << "decision for event " << d.event.id << " has padded_size " << d.padded_size
         << ", expected " << PlanPaddedSize(d.event.size) << " for size " << d.event.size;
      return os.str();
    }
    points.push_back({d.event.ts, true, i});
    points.push_back({d.event.te, false, i});
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.is_alloc < b.is_alloc;  // frees first (half-open lifespans)
  });

  std::map<uint64_t, size_t> live;  // addr -> decision index
  for (const auto& p : points) {
    const PlanDecision& d = decisions[p.idx];
    if (!p.is_alloc) {
      live.erase(d.addr);
      continue;
    }
    if (d.end_addr() > pool_size) {
      std::ostringstream os;
      os << "decision for event " << d.event.id << " ends at " << d.end_addr()
         << " beyond pool size " << pool_size;
      return os.str();
    }
    auto next = live.lower_bound(d.addr);
    if (next != live.end() && d.end_addr() > next->first) {
      std::ostringstream os;
      os << "decision for event " << d.event.id << " [" << d.addr << ", " << d.end_addr()
         << ") overlaps live event " << decisions[next->second].event.id;
      return os.str();
    }
    if (next != live.begin()) {
      auto prev = std::prev(next);
      const PlanDecision& pd = decisions[prev->second];
      if (pd.end_addr() > d.addr) {
        std::ostringstream os;
        os << "decision for event " << d.event.id << " at " << d.addr
           << " overlaps live event " << pd.event.id << " [" << pd.addr << ", " << pd.end_addr()
           << ")";
        return os.str();
      }
    }
    live.emplace(d.addr, p.idx);
  }
  return {};
}

}  // namespace

uint64_t StaticPlan::PeakPaddedBytes(const std::vector<PlanDecision>& decisions) {
  std::vector<std::pair<LogicalTime, int64_t>> points;
  points.reserve(decisions.size() * 2);
  for (const auto& d : decisions) {
    points.emplace_back(d.event.ts, static_cast<int64_t>(d.padded_size));
    points.emplace_back(d.event.te, -static_cast<int64_t>(d.padded_size));
  }
  std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first < b.first;
    }
    return a.second < b.second;
  });
  int64_t live = 0;
  int64_t peak = 0;
  for (const auto& [t, delta] : points) {
    live += delta;
    peak = std::max(peak, live);
  }
  return static_cast<uint64_t>(peak);
}

bool StaticPlan::Check(std::string* error) const {
  std::string msg = SweepCheck(decisions, pool_size);
  if (!msg.empty()) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  }
  return true;
}

void StaticPlan::Validate() const {
  std::string error;
  STALLOC_CHECK(Check(&error), << "invalid static plan: " << error);
}

}  // namespace stalloc
