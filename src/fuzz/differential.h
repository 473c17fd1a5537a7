// The differential driver: runs one fuzz case through every execution
// and rewrite pipeline the library has and compares each against the
// brute-force oracle (fuzz/oracle.h).
//
// Result checks (bag equality against the oracle):
//   eval-nl / eval-hash    the materializing evaluator, both kernels
//   batch-engine[-capN]    the batch pipeline at several capacities
//   parallel-engine-wN     the morsel-driven parallel pipeline at N
//                          workers (tiny morsels force real splitting);
//                          parallel-engine-nl-w2 with nested loops forced
//   wcoj-*                 forced multiway plans (every pure-join region
//                          collapsed to a leapfrog join) through the
//                          evaluator, the batch pipeline, and the
//                          parallel pipeline
//   acyclic-*              forced Yannakakis semijoin programs (every
//                          acyclic pure-join region fully reduced,
//                          bottom-up + top-down, no gates), likewise
//   optimizer[-batch]      the plan Optimize() picks
//   plan-cache             a second Optimize through an LruPlanCache must
//                          hit and replay an equal-result plan
//   feedback-replan        one closed feedback loop (optimizer/feedback.h):
//                          plan, execute, persist actuals, report Q-error
//                          past the staleness threshold — the next lookup
//                          must claim exactly one re-plan
//   feedback-replay        and the lookup after that must replay the
//                          re-planned entry from cache (no thrash)
//   feedback-batch         the feedback-corrected re-plan ≡ oracle
//                          (feedback steers plan choice only, never
//                          results)
//   feedback-parallel-wN   ... and on the parallel pipeline at N workers,
//                          with serial-batch counter parity
//                          (feedback-parallel-stats-parity-wN)
//   closure                every implementing tree in the result-
//                          preserving BT closure (size-capped)
//   it-enum                on freely-reorderable graphs, every
//                          implementing tree (count-capped) — Theorem 1
//
// Counter parity (reads, emitted, probes, predicate evaluations):
//   stats-parity           the batch pipeline must report the evaluator's
//                          EvalStats::totals (the counter reference)
//   acyclic-stats-parity   likewise for the forced semijoin program
//   wcoj-stats-parity      the forced multiway plan at batch capacity 1
//                          must report the default capacity's totals
//                          (the evaluator's multiway reference is a cross
//                          product and counts differently)
//   *parallel-stats-parity-wN  the N-worker parallel pipeline must report
//                          exactly the serial batch pipeline's totals
//                          (*-nl-w2: both with nested loops forced)
//
// Metamorphic checks (transform the *query*, re-run the oracle, compare
// with the oracle on the original):
//   bt:<rule>              every applicable result-preserving basic
//                          transform (Section 3.2)
//   simplify               the Section 4 outerjoin-to-join rule
//   goj-rewrite            Section 6.2 left-deepening (identities 15/16),
//                          gated on duplicate-free base relations — the
//                          identities' stated precondition
//   canonical-orientation  reversal normalization
//
// Each divergence carries the check name and a canonical rendering of
// expected vs. actual, so a failing case is diagnosable from the report
// alone; fuzz/shrink.h re-runs a single named check while minimizing.

#ifndef FRO_FUZZ_DIFFERENTIAL_H_
#define FRO_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/case_gen.h"

namespace fro {

struct DiffOptions {
  /// Cap on closure states explored / trees evaluated per case.
  size_t max_closure_trees = 32;
  /// Cap on enumerated implementing trees per freely-reorderable case.
  size_t max_enum_trees = 16;
  /// Cap on metamorphic BT sites exercised per case.
  size_t max_bt_sites = 12;
  /// Run the (oracle-squared cost) metamorphic checks.
  bool metamorphic = true;
  /// Exercise plan-cache replay.
  bool plan_cache = true;
  /// Exercise the cardinality-feedback loop (execute, persist actuals,
  /// re-plan, verify the corrected plan serially and in parallel).
  bool feedback = true;
};

struct Divergence {
  std::string check;
  std::string detail;
};

struct DiffReport {
  std::vector<Divergence> divergences;
  uint64_t checks_run = 0;

  bool ok() const { return divergences.empty(); }
  std::string ToString() const;
};

/// Runs every pipeline over `fuzz_case` and returns the divergences.
DiffReport RunDifferential(const FuzzCase& fuzz_case,
                           const DiffOptions& options = DiffOptions());

/// Re-runs only the named check (a Divergence::check value; "bt:*"
/// prefixes match any basic-transform site). True if the check still
/// diverges — the shrinker's predicate.
bool CheckStillDiverges(const FuzzCase& fuzz_case, const std::string& check,
                        const DiffOptions& options = DiffOptions());

}  // namespace fro

#endif  // FRO_FUZZ_DIFFERENTIAL_H_
