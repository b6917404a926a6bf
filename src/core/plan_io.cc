#include "src/core/plan_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>


namespace stalloc {

namespace {

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

// Parses the whole of `field` as a decimal integer of T's range; false on anything else
// (empty, trailing bytes, overflow).
template <typename T>
bool ParseField(const std::string& field, T* value) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return !field.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

void WritePlanCsv(const StaticPlan& plan, const DynamicReusableSpace& space, std::ostream& os) {
  os << "# stalloc-plan v1\n";
  os << "# pool," << plan.pool_size << "," << plan.lower_bound << "\n";
  for (const auto& [key, region] : space.regions) {
    os << "# region," << key.first << "," << key.second;
    for (const auto& iv : region.ToVector()) {
      os << "," << iv.lo << "," << iv.hi;
    }
    os << "\n";
  }
  for (const auto& [ls, les] : space.expected_le) {
    os << "# expected_le," << ls;
    for (LayerId le : les) {
      os << "," << le;
    }
    os << "\n";
  }
  os << "event_id,addr,padded_size,size,ts,te,ps,pe,dyn,ls,le,stream\n";
  for (const auto& d : plan.decisions) {
    const MemoryEvent& e = d.event;
    os << e.id << "," << d.addr << "," << d.padded_size << "," << e.size << "," << e.ts << ","
       << e.te << "," << e.ps << "," << e.pe << "," << (e.dyn ? 1 : 0) << "," << e.ls << ","
       << e.le << "," << static_cast<int>(e.stream) << "\n";
  }
}

bool WritePlanCsvFile(const StaticPlan& plan, const DynamicReusableSpace& space,
                      const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WritePlanCsv(plan, space, os);
  return static_cast<bool>(os);
}

bool ReadPlanCsv(std::istream& is, LoadedPlan* out, std::string* error) {
  *out = LoadedPlan{};
  std::string line;
  size_t line_no = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "plan CSV line " + std::to_string(line_no) + ": " + message;
    }
    return false;
  };
  bool header_seen = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      auto fields = Split(line.substr(std::min<size_t>(2, line.size())));
      bool ok = true;
      if (fields[0] == "pool" && fields.size() >= 3) {
        ok = ParseField(fields[1], &out->plan.pool_size) &&
             ParseField(fields[2], &out->plan.lower_bound);
      } else if (fields[0] == "region" && fields.size() >= 3) {
        LayerId ls = 0;
        LayerId le = 0;
        ok = ParseField(fields[1], &ls) && ParseField(fields[2], &le);
        IntervalSet set;
        for (size_t i = 3; ok && i + 1 < fields.size(); i += 2) {
          uint64_t lo = 0;
          uint64_t hi = 0;
          ok = ParseField(fields[i], &lo) && ParseField(fields[i + 1], &hi);
          if (ok) {
            set.Insert(lo, hi);
          }
        }
        out->space.regions.emplace(std::make_pair(ls, le), std::move(set));
      } else if (fields[0] == "expected_le" && fields.size() >= 2) {
        LayerId ls = 0;
        ok = ParseField(fields[1], &ls);
        auto& les = out->space.expected_le[ls];
        for (size_t i = 2; ok && i < fields.size(); ++i) {
          les.emplace_back();
          ok = ParseField(fields[i], &les.back());
        }
      }
      if (!ok) {
        return fail("non-numeric field in comment row: " + line);
      }
      continue;
    }
    if (!header_seen) {
      header_seen = true;
      if (line.rfind("event_id,", 0) != 0) {
        return fail("unexpected header: " + line);
      }
      continue;
    }
    auto fields = Split(line);
    if (fields.size() < 12) {
      return fail("short row (" + std::to_string(fields.size()) + " of 12 fields): " + line);
    }
    PlanDecision d;
    int dyn = 0;
    if (!ParseField(fields[0], &d.event.id) || !ParseField(fields[1], &d.addr) ||
        !ParseField(fields[2], &d.padded_size) || !ParseField(fields[3], &d.event.size) ||
        !ParseField(fields[4], &d.event.ts) || !ParseField(fields[5], &d.event.te) ||
        !ParseField(fields[6], &d.event.ps) || !ParseField(fields[7], &d.event.pe) ||
        !ParseField(fields[8], &dyn) || !ParseField(fields[9], &d.event.ls) ||
        !ParseField(fields[10], &d.event.le) || !ParseField(fields[11], &d.event.stream)) {
      return fail("non-numeric or out-of-range field: " + line);
    }
    d.event.dyn = dyn != 0;
    out->plan.decisions.push_back(d);
  }
  std::string invalid;
  if (!out->plan.Check(&invalid)) {
    if (error != nullptr) {
      *error = "invalid static plan: " + invalid;
    }
    return false;
  }
  return true;
}

bool ReadPlanCsvFile(const std::string& path, LoadedPlan* out, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) {
      *error = "cannot open plan file " + path;
    }
    return false;
  }
  return ReadPlanCsv(is, out, error);
}

}  // namespace stalloc
