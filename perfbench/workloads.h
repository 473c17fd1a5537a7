// The benchmark's workloads. Each one is set up from a seed, computes its
// correctness references once, then runs a closed loop until a time
// budget is spent: untraced (end-to-end metrics) or traced layer by layer
// (per-layer metrics). See README.md for why each workload exists.

#ifndef FRO_PERFBENCH_WORKLOADS_H_
#define FRO_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace fro::perfbench {

/// One completed untraced query.
struct Sample {
  int64_t end_ns = 0;
  double latency_us = 0;
};

/// What a run measured. Latencies are per query, in microseconds.
struct RunResult {
  std::vector<Sample> samples;
  /// Throughput divides by time spent inside queries (in-process loops,
  /// which exclude the bench's own result checks) instead of wall time.
  bool busy_throughput = false;
  /// Traced runs: each traced query's root span, and the same query run
  /// untraced beside it, for trace.overhead_frac.
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failure descriptions (wrong result, error status,
  /// broken exact counter).
  std::vector<std::string> failures;
  /// Per-layer metrics by name (traced runs only).
  std::map<std::string, double> layer;
  /// Free-form facts recorded alongside the metrics (data sizes, counts).
  std::map<std::string, std::string> info;

  void Fail(const std::string& why);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates data, builds the database (and server), and warms the
  /// plan cache and feedback store until they converge. Timed as setup_s.
  virtual void Setup() = 0;
  /// Computes the reference result of every distinct query once and
  /// checks the exact counters that only need checking once.
  virtual void PrepareReferences(RunResult* result) = 0;
  /// Closed loop without instrumentation for `seconds`.
  virtual void RunUntraced(double seconds, RunResult* result) = 0;
  /// Closed loop replayed layer by layer with spans for `seconds`, each
  /// query also run untraced beside it; fills the per-layer metrics the
  /// workload exercises.
  virtual void RunTraced(double seconds, Trace* trace, RunResult* result) = 0;
};

std::unique_ptr<Workload> MakePlanSection5(uint64_t seed);
std::unique_ptr<Workload> MakeServeSection5(uint64_t seed);
std::unique_ptr<Workload> MakeExecAlgebra(uint64_t seed);

/// The exec_algebra family names, in report order.
std::vector<std::string> AlgebraFamilyNames();

/// Per-cycle exact counters: a cycle is one pass over a workload's fixed
/// request list, so with the same seed every cycle repeats them exactly.
struct CycleCounts {
  uint64_t base_tuples_read = 0;
  uint64_t probes = 0;
  uint64_t predicate_evals = 0;
  uint64_t emitted = 0;
  uint64_t plans_considered = 0;
  bool operator==(const CycleCounts&) const = default;
  /// Adds one executed plan's counters (scans excluded, as in
  /// SumPipelineStats; base tuples as in BaseTuplesRead).
  void Add(const PlanOpStats& executed);
  std::string ToString() const;
};

/// Checks that every complete cycle's counts equal the first one's and
/// records them as per-layer metrics; mismatches fail the run.
void ReportCycleCounts(const std::vector<CycleCounts>& cycles,
                       RunResult* result);

}  // namespace fro::perfbench

#endif  // FRO_PERFBENCH_WORKLOADS_H_
