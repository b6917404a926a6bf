// Shared JSON serializers for the report layer: one place that knows how each result struct is
// spelled in JSON, so every bench and tool emits the same field names for the same facts.

#ifndef SRC_API_SERIALIZERS_H_
#define SRC_API_SERIALIZERS_H_

#include "src/api/report.h"
#include "src/api/spec.h"
#include "src/cluster/fleet.h"
#include "src/core/planner.h"
#include "src/trace/trace_stats.h"

namespace stalloc {

// The uniform run envelope: identity + common outcome fields + the axis payload (inlined as
// axis-specific keys, not a nested blob — consumers read one flat-ish object).
Json ToJson(const RunRecord& record);

Json ToJson(const ExperimentResult& result);
Json ToJson(const PhaseTimings& phases);
Json ToJson(const telemetry::OomReport& report);  // flight-recorder post-mortem block
Json ToJson(const telemetry::HeapSnapshot& snapshot);       // heap-map address-space frame
Json ToJson(const telemetry::FragAttributionRow& row);      // frag-attribution table row
Json ToJson(const ServeSimStats& stats);
Json ToJson(const DeviceMetrics& metrics);
Json ToJson(const ClusterResult& result);   // includes per-device metrics, not per-job outcomes
Json ToJson(const JobOutcome& outcome);     // one job of a cluster day, with its shape
Json ToJson(const TraceStats& stats);
Json ToJson(const PlanStats& stats);

// Machine-readable run metadata of a spec — axis, model, variant, seeds, capacity, allocator
// names, repeats — the block every bench/tool JSON carries at its root.
Json SpecMetaJson(const ExperimentSpec& spec);

}  // namespace stalloc

#endif  // SRC_API_SERIALIZERS_H_
