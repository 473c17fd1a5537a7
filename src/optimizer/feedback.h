// Runtime cardinality feedback (the MariaDB-style optimizer-feedback
// loop): every execution snapshots true per-operator cardinalities
// (exec/stats_view.h), the FeedbackStore remembers them keyed by the
// operator's *source-expression structural hash*, and the estimator
// consults those actuals before falling back to the static model.
//
// Why the op-hash is the lookup key: the true cardinality of a logical
// subexpression is a property of the expression and the data, not of the
// plan that happened to compute it — any plan containing a node with the
// same structural hash produces the same number of rows (Theorem 1 for
// the reorderable class; hash identity for everything else). The
// plan-hash rides along per entry as provenance only.
//
// Why correction is sound: feedback enters exclusively through
// CardinalityEstimator::Estimate, which no executor consults — it can
// change which implementing tree the optimizer picks (DP search, the
// wcoj/acyclic cost gates, safe-subjoin survivor analysis) but never
// what a tree evaluates to. The differential fuzzer's `feedback-*`
// checks pin this down: re-planned queries are held to the 3VL oracle.

#ifndef FRO_OPTIMIZER_FEEDBACK_H_
#define FRO_OPTIMIZER_FEEDBACK_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/expr.h"

namespace fro {

class CardinalityEstimator;
class Database;
struct PlanOpStats;

/// Q-error of an estimate against the measured cardinality:
/// max(est, actual) / min(est, actual), both clamped to at least one row
/// so zero-cardinality operators (empty intermediates) never divide by
/// zero. Always >= 1; 1 means the estimate was exact (to within a row).
double QError(double est, double actual);

class FeedbackStore;

/// A point-in-time view of a store's corrections: source-expr hash ->
/// measured output rows. This is what the estimator holds
/// (optimizer/cardinality.h) — plain data once read, safe to copy into
/// an optimization and drop after.
///
/// A snapshot taken with FeedbackStore::Snapshot copies the store on its
/// first read, not when it is taken, so a planning run that never reads
/// it (a plan-cache hit) copies nothing; every later read sees that one
/// copy. Until that first read the store must stay alive, and one
/// snapshot must not be read from two threads at once (each optimization
/// holds its own).
class CardinalityFeedback {
 public:
  CardinalityFeedback() = default;

  bool empty() const { return entries().empty(); }
  size_t size() const { return entries().size(); }

  /// The corrected row count for `op_hash`, or null when the store has
  /// never seen that subexpression execute.
  const double* Lookup(uint64_t op_hash) const {
    const std::unordered_map<uint64_t, double>& corrected = entries();
    auto it = corrected.find(op_hash);
    return it == corrected.end() ? nullptr : &it->second;
  }

  /// Direct injection, used by tests and the differential fuzzer to
  /// force a correction without going through a store.
  void Set(uint64_t op_hash, double rows) {
    Load();
    corrected_[op_hash] = rows;
  }

  const std::unordered_map<uint64_t, double>& entries() const {
    Load();
    return corrected_;
  }

 private:
  friend class FeedbackStore;
  explicit CardinalityFeedback(const FeedbackStore* source)
      : source_(source) {}

  /// Takes the pending copy of `source_`, if any.
  void Load() const;

  /// The store still to be copied; null once copied or for a snapshot
  /// built with Set.
  mutable const FeedbackStore* source_ = nullptr;
  mutable std::unordered_map<uint64_t, double> corrected_;
};

struct FeedbackOptions {
  /// Distinct subexpressions remembered; beyond it the entry with the
  /// lowest decayed weight is evicted.
  size_t capacity = 1024;
  /// Per-observation-tick multiplier applied to an entry's weight while
  /// it is *not* being re-observed; entries that stop executing fade and
  /// lose eviction contests to live ones.
  double decay = 0.95;
  /// Weight of the newest actual in the running (EWMA) cardinality.
  double ewma_alpha = 0.5;
  /// Entries whose decayed weight falls below this are dropped outright
  /// during eviction sweeps.
  double min_weight = 0.05;
};

/// Point-in-time counters of a FeedbackStore, including the log-scale
/// Q-error histogram STATS renders (bucket i counts observations with
/// q-error in [2^i, 2^(i+1)); the last bucket is open-ended).
struct FeedbackStoreStats {
  static constexpr int kQErrorBuckets = 16;

  size_t size = 0;
  size_t capacity = 0;
  uint64_t observations = 0;
  uint64_t evictions = 0;
  uint64_t merged = 0;
  double max_q_error = 1.0;
  uint64_t q_error_hist[kQErrorBuckets] = {0};

  std::string ToString() const;
};

/// The server's shared actuals registry. Thread-safe: workers Observe
/// concurrently after every execution, and each optimization takes a
/// Snapshot (copied on its first read) to plan against. Bounded:
/// `capacity` live entries, exponential decay retires subexpressions that
/// stopped executing (see FeedbackOptions).
class FeedbackStore {
 public:
  explicit FeedbackStore(FeedbackOptions options = FeedbackOptions());

  /// Records one operator's measured cardinality. `plan_hash` is the
  /// executed plan's structural hash (provenance); `op_hash` the
  /// operator's source-expression hash; `est_rows` the estimate the plan
  /// was chosen with, feeding the Q-error histogram.
  void Observe(uint64_t plan_hash, uint64_t op_hash, double est_rows,
               double actual_rows);

  /// The corrections (op-hash -> EWMA actual rows) as of the snapshot's
  /// first read, when it copies them (see CardinalityFeedback).
  CardinalityFeedback Snapshot() const;

  /// Folds externally collected corrections in (e.g. a peer shard's
  /// snapshot), each counting as one fresh observation.
  void Merge(const CardinalityFeedback& other);

  /// The remembered cardinality for `op_hash`, or nullopt.
  std::optional<double> CorrectedRows(uint64_t op_hash) const;

  /// The entry's decayed weight (recency mass), or nullopt. Exposed for
  /// decay tests and the shell's \feedback listing.
  std::optional<double> WeightOf(uint64_t op_hash) const;

  FeedbackStoreStats stats() const;

  /// Human-readable rollup: the stats line, the Q-error histogram, and
  /// the `top_n` heaviest entries. The shell's \feedback payload.
  std::string Describe(size_t top_n = 10) const;

  void Clear();

 private:
  struct Entry {
    double rows = 0;       // EWMA of observed actuals
    double weight = 0;     // decayed observation mass
    uint64_t last_tick = 0;
    uint64_t plan_hash = 0;  // last contributing plan (provenance)
  };

  friend class CardinalityFeedback;

  /// Copies the current corrections out.
  std::unordered_map<uint64_t, double> CopyCorrections() const;

  // Both require mu_ held.
  double DecayedWeight(const Entry& entry) const;
  void ObserveLocked(uint64_t plan_hash, uint64_t op_hash, double est_rows,
                     double actual_rows);
  void EvictLocked();

  FeedbackOptions options_;
  mutable std::mutex mu_;
  uint64_t tick_ = 0;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t observations_ = 0;
  uint64_t evictions_ = 0;
  uint64_t merged_ = 0;
  double max_q_error_ = 1.0;
  uint64_t q_error_hist_[FeedbackStoreStats::kQErrorBuckets] = {0};
};

/// The estimates a chosen plan was costed with, one entry per distinct
/// subexpression hash. Recorded at planning time and cached alongside
/// the plan, so post-execution Q-error measures the estimates that
/// *picked* this plan — after a feedback-driven re-plan the stored
/// estimates are the corrected ones, actuals match, the running Q-error
/// stays low, and the cache entry is not re-marked stale (re-plan once,
/// no thrashing while actuals are stable).
struct OpEstimates {
  std::vector<std::pair<uint64_t, double>> entries;

  bool empty() const { return entries.empty(); }
  const double* Find(uint64_t op_hash) const;
};

/// Walks `plan` and records the estimator's output estimate for every
/// node (feedback corrections included if the estimator carries any).
OpEstimates CollectOpEstimates(const ExprPtr& plan,
                               const CardinalityEstimator& estimator);

/// Feeds one execution back: walks the PlanOpStats snapshot, records
/// each operator's measured cardinality into `store` (null store =
/// measure only), and returns the worst per-operator Q-error against
/// `estimates`. Passthrough nodes and nodes without a source expression
/// are skipped; duplicate hashes (e.g. a morsel exchange wrapping its
/// spine) are observed once with the larger count.
double ObservePlanExecution(FeedbackStore* store, uint64_t plan_hash,
                            const PlanOpStats& snapshot,
                            const OpEstimates& estimates);

/// One stamp summarizing every base relation's mutation generation
/// (relational/database.h) — the plan-cache invalidation token: a cached
/// plan optimized at stamp G is stale once any relation's generation
/// bumps, because both its shape and its feedback were measured against
/// data that no longer exists.
uint64_t DatabaseGenerationStamp(const Database& db);

}  // namespace fro

#endif  // FRO_OPTIMIZER_FEEDBACK_H_
