// Bench-side instrumentation for fro_perfbench: clocks, an in-memory span
// log, per-layer accumulators, a timing RewritePass decorator, operator
// self time from PlanOpStats, and an order-independent result
// fingerprint. Everything here times calls *into* the library from the
// outside; nothing inside src/ is instrumented.

#ifndef FRO_PERFBENCH_TRACE_H_
#define FRO_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/stats_view.h"
#include "optimizer/rewrite_pass.h"
#include "relational/relation.h"

namespace fro::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `id` numbers the spans of one query in opening
/// order (the root is 0); `parent` is the enclosing span's id, -1 for the
/// root.
struct Span {
  uint32_t query = 0;
  int id = 0;
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans in memory and accumulates their durations by name. A
/// query is a root span; the spans opened directly under it are the layer
/// boundaries that attribution counts. The first kMaxKeptQueries queries
/// are kept verbatim for WriteSpans. Single-threaded.
class Trace {
 public:
  static constexpr uint32_t kMaxKeptQueries = 256;

  /// Opens a query's root span; returns its handle (always 0).
  int BeginQuery(const char* name);
  /// Closes the root span and finishes the query.
  void EndQuery();

  /// Opens a child span of `parent` (a handle); returns its handle.
  int Open(const char* name, int parent);
  void Close(int span);

  /// Times `fn()` as a child span of `parent`; returns fn's result.
  template <typename Fn>
  auto Time(const char* name, int parent, Fn&& fn) {
    const int span = Open(name, parent);
    auto result = fn();
    Close(span);
    return result;
  }

  /// Adds a duration measured elsewhere (operator self time, derived
  /// costing time) under `name`, without a span.
  void AddNs(const std::string& name, int64_t ns) { totals_ns_[name] += ns; }

  /// Mean microseconds per traced query spent under `name`.
  double MeanUs(const std::string& name) const;
  uint64_t queries() const { return root_ns_.size(); }
  /// Per-query root durations, for the traced p50.
  const std::vector<int64_t>& root_ns() const { return root_ns_; }

  /// Share of root-span time not covered by the roots' direct children.
  double UnattributedFrac() const;

  /// Writes the kept spans as JSON lines to `path` (no-op when empty).
  void WriteSpans(const std::string& path) const;

 private:
  std::vector<Span> live_;  // spans of the current query, by id
  std::vector<Span> kept_;
  std::map<std::string, int64_t> totals_ns_;
  std::vector<int64_t> root_ns_;
  int64_t child_total_ns_ = 0;
};

/// A copy of RewritePipeline::Default() whose every pass is wrapped in a
/// decorator that opens an "optimizer.pass.<name>" span under
/// `*parent_span` of `trace`. The decorated passes hold pointers to both;
/// the pipeline must not outlive them, nor run concurrently.
RewritePipeline TimedDefaultPipeline(Trace* trace, const int* parent_span);

/// Adds each operator's self time (inclusive open_ns + next_ns minus its
/// children's) to `trace` under "exec.op.<physical_name>.self_us", plus
/// "wcoj.self_us" for leapfrog operators and "acyclic.semijoin_self_us"
/// for operators implementing a semijoin. An Exchange's children run on
/// worker threads, so its self time is its own inclusive (consumer-side)
/// time; merged worker operators report time summed over workers.
void AddOperatorSelfTimes(const PlanOpStats& root, Trace* trace);

/// Order-independent bag fingerprint: row count plus two sums of per-row
/// hashes, columns taken in attribute-id order so scheme order does not
/// matter.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const Relation& relation);

/// q-quantile of `samples`, interpolated between the closest ranks.
double Quantile(std::vector<double> samples, double q);

}  // namespace fro::perfbench

#endif  // FRO_PERFBENCH_TRACE_H_
