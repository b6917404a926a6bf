// Plan serialization: the Plan Synthesizer runs as a standalone offline tool in the paper's
// deployment (§8); plans travel from the planning host to the training job as files.

#ifndef SRC_CORE_PLAN_IO_H_
#define SRC_CORE_PLAN_IO_H_

#include <iosfwd>
#include <string>

#include "src/core/dynamic_space.h"
#include "src/core/plan.h"

namespace stalloc {

// Writes plan + dynamic reusable space as CSV with a header comment block.
void WritePlanCsv(const StaticPlan& plan, const DynamicReusableSpace& space, std::ostream& os);
bool WritePlanCsvFile(const StaticPlan& plan, const DynamicReusableSpace& space,
                      const std::string& path);

struct LoadedPlan {
  StaticPlan plan;
  DynamicReusableSpace space;
};

// Parses a plan produced by WritePlanCsv into *out. Returns false with a message in *error
// (when non-null) on malformed input — a bad header, a short row, a non-numeric field, an
// unreadable file — or on a plan that fails StaticPlan::Check; *out is unspecified then.
bool ReadPlanCsv(std::istream& is, LoadedPlan* out, std::string* error);
bool ReadPlanCsvFile(const std::string& path, LoadedPlan* out, std::string* error);

}  // namespace stalloc

#endif  // SRC_CORE_PLAN_IO_H_
