// Session: the one way to run an experiment — takes ExperimentSpecs and returns uniform
// RunRecord envelopes.
//
// The rank, trace-file and serving axes run one pipeline: build the run trace (or borrow the
// preloaded trace/view), then — for plan kinds only — profile, synthesize the plan offline and
// initialize STAlloc (§8); every other kind comes from its registry factory. The replay is
// ReplayTrace in both cases. The job axis runs that pipeline once per pipeline rank; the cluster
// axis runs RunCluster. tests/session_test.cc pins the numbers with literal values.

#ifndef SRC_API_SESSION_H_
#define SRC_API_SESSION_H_

#include <string>
#include <vector>

#include "src/api/spec.h"
#include "src/cluster/cluster_workload.h"
#include "src/trace/trace.h"
#include "src/trace/trace_v2.h"

namespace stalloc {

class Session {
 public:
  Session() = default;

  // Checks every name the spec references (allocators, model, scenario, policy, axis fit —
  // e.g. plan-pipeline allocators cannot front a shared cluster device). Returns false and
  // fills `error` on the first problem; Run/RunOne abort on specs that fail validation.
  static bool Validate(const ExperimentSpec& spec, std::string* error);

  // Runs the full matrix: every allocator in spec.allocators x spec.repeats repeats, in
  // declaration order (repeat-major per allocator).
  std::vector<RunRecord> Run(const ExperimentSpec& spec);

  // Runs one (allocator, repeat) cell of the matrix.
  RunRecord RunOne(const ExperimentSpec& spec, const std::string& allocator, int repeat = 0);

  // Cluster variant over an explicit job queue (benches with bespoke workloads); the spec still
  // provides the fleet shape (devices, capacity, policy, retries, allocator overrides).
  RunRecord RunClusterJobs(const ExperimentSpec& spec, const std::string& allocator,
                           const std::vector<ClusterJob>& jobs, int repeat = 0);

  // Preloads a replay trace for kTrainRank specs: subsequent rank-axis runs replay it instead of
  // building the simulated workload. Baseline kinds replay it directly; plan kinds treat it as
  // its own profile (the self-plan upper bound), and a trace with no phase structure cannot be
  // planned, so plan kinds come back infeasible on it. The session borrows the trace/view — it
  // must outlive every run. Pass nullptr to clear; setting one form clears the other. The view
  // form replays straight from the mmap'd columnar file; only plan kinds materialize it.
  void SetReplayTrace(const Trace* trace);
  void SetReplayTrace(const TraceView* view);

 private:
  const Trace* replay_trace_ = nullptr;
  const TraceView* replay_view_ = nullptr;
};

}  // namespace stalloc

#endif  // SRC_API_SESSION_H_
