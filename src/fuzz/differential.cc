#include "fuzz/differential.h"

#include <unordered_set>
#include <vector>

#include "algebra/eval.h"
#include "algebra/simplify.h"
#include "algebra/transform.h"
#include "common/check.h"
#include "enumerate/closure.h"
#include "enumerate/it_enum.h"
#include "exec/build.h"
#include "exec/morsel.h"
#include "exec/stats_view.h"
#include "fuzz/oracle.h"
#include "optimizer/feedback.h"
#include "graph/from_expr.h"
#include "graph/nice.h"
#include "optimizer/acyclic_rewrite.h"
#include "optimizer/goj_rewrite.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "optimizer/wcoj_rewrite.h"
#include "relational/tuple.h"

namespace fro {

namespace {

// Trims a canonical relation rendering for a readable report.
std::string Excerpt(const Relation& rel, const Catalog* catalog) {
  std::string s = CanonicalString(rel, catalog);
  constexpr size_t kMax = 800;
  if (s.size() > kMax) {
    s.resize(kMax);
    s += "\n... (truncated)";
  }
  return s;
}

class Differ {
 public:
  Differ(const FuzzCase& fuzz_case, const DiffOptions& options,
         DiffReport* report)
      : c_(fuzz_case), options_(options), report_(report) {
    oracle_ = OracleEval(c_.query, *c_.db);
  }

  const Relation& oracle() const { return oracle_; }

  /// Compares `got` (a pipeline's result for the original query) against
  /// the oracle.
  void ExpectOracle(const std::string& check, const Relation& got) {
    ExpectEqual(check, oracle_, got);
  }

  void ExpectEqual(const std::string& check, const Relation& want,
                   const Relation& got) {
    ++report_->checks_run;
    if (BagEquals(want, got)) return;
    report_->divergences.push_back(
        {check, "expected:\n" + Excerpt(want, &c_.db->catalog()) +
                    "\nactual:\n" + Excerpt(got, &c_.db->catalog())});
  }

  void Fail(const std::string& check, const std::string& detail) {
    ++report_->checks_run;
    report_->divergences.push_back({check, detail});
  }

  bool WantCheck(const std::string& check) const {
    if (only_ == nullptr) return true;
    if (*only_ == check) return true;
    // "bt:*" selects every basic-transform metamorphic site.
    return *only_ == "bt:*" && check.rfind("bt:", 0) == 0;
  }

  void RestrictTo(const std::string* only) { only_ = only; }

  // --- the checks -----------------------------------------------------

  void CheckEvaluator() {
    if (WantCheck("eval-nl")) {
      EvalOptions nl;
      nl.algo = JoinAlgo::kNestedLoop;
      ExpectOracle("eval-nl", Eval(c_.query, *c_.db, nl));
    }
    if (WantCheck("eval-hash")) {
      EvalOptions hash;
      hash.algo = JoinAlgo::kHash;
      ExpectOracle("eval-hash", Eval(c_.query, *c_.db, hash));
    }
  }

  // Counter parity: reads, emitted, probes and predicate evaluations
  // must agree exactly (wall-clock fields are ignored).
  void ExpectCounters(const std::string& check, const char* want_label,
                      const ExecStats& want, const char* got_label,
                      const ExecStats& got) {
    ++report_->checks_run;
    if (want.left_reads == got.left_reads &&
        want.right_reads == got.right_reads && want.emitted == got.emitted &&
        want.probes == got.probes &&
        want.predicate_evals == got.predicate_evals) {
      return;
    }
    auto describe = [](const char* label, const ExecStats& s) {
      return std::string(label) + ": " + s.ToString() + " (left=" +
             std::to_string(s.left_reads) + " right=" +
             std::to_string(s.right_reads) + ")";
    };
    report_->divergences.push_back(
        {check, describe(want_label, want) + "\n" + describe(got_label, got)});
  }

  // The batch pipeline's counters and result against the evaluator's
  // (EvalStats::totals, the documented counter reference).
  void CheckEvalParity(const std::string& check, const ExprPtr& plan) {
    if (!WantCheck(check)) return;
    EvalStats eval_stats;
    Relation eval_out = Eval(plan, *c_.db, EvalOptions(), &eval_stats);
    BatchIteratorPtr root = BuildBatchIterator(plan, *c_.db);
    Relation batch_out = DrainBatches(root.get());
    ExpectCounters(check, "eval", eval_stats.totals, "batch",
                   CollectPipelineStats(root.get()));
    // The drained results ride along for free.
    ExpectEqual(check + "-results", eval_out, batch_out);
  }

  // Morsel-driven parallel pipelines (exec/morsel.h) must agree with the
  // oracle AND report exactly the serial batch engine's counters at every
  // worker count. Tiny morsels and batches force real work splitting (and
  // the GOJ cross-partition padding merge) even on the small relations
  // fuzz cases generate.
  void CheckParallelPlan(const std::string& result_prefix,
                         const std::string& stats_prefix,
                         const ExprPtr& plan) {
    for (const int workers : {1, 2, 4}) {
      const std::string result_check =
          result_prefix + "-w" + std::to_string(workers);
      const std::string stats_check =
          stats_prefix + "-w" + std::to_string(workers);
      const bool want_result = WantCheck(result_check);
      const bool want_stats = WantCheck(stats_check);
      if (!want_result && !want_stats) continue;
      ParallelOptions par;
      par.threads = workers;
      par.morsel_rows = 2;
      par.batch_capacity = 4;
      BatchIteratorPtr root = BuildParallelBatchIterator(plan, *c_.db, par);
      Relation out = DrainBatches(root.get());
      if (want_result) ExpectOracle(result_check, out);
      if (want_stats) {
        BatchIteratorPtr serial = BuildBatchIterator(plan, *c_.db);
        DrainBatches(serial.get());
        ExpectCounters(stats_check, "serial",
                       CollectPipelineStats(serial.get()), "parallel",
                       CollectPipelineStats(root.get()));
      }
    }
  }

  void CheckEngines() {
    if (WantCheck("batch-engine")) {
      ExpectOracle("batch-engine", ExecuteBatched(c_.query, *c_.db));
    }
    if (WantCheck("batch-engine-cap1")) {
      ExpectOracle("batch-engine-cap1",
                   ExecuteBatched(c_.query, *c_.db, JoinAlgo::kAuto, 1));
    }
    if (WantCheck("batch-engine-cap3")) {
      ExpectOracle("batch-engine-cap3",
                   ExecuteBatched(c_.query, *c_.db, JoinAlgo::kAuto, 3));
    }
  }

  void CheckStatsParity() { CheckEvalParity("stats-parity", c_.query); }

  void CheckParallel() {
    CheckParallelPlan("parallel-engine", "parallel-stats-parity", c_.query);
  }

  void CheckMultiway() {
    // Forced-multiway plans: collapse every pure-join region into one
    // leapfrog multiway join (semantics-preserving, no cost gate) and
    // hold the operator to the oracle, to counter parity across batch
    // capacities, and to the morsel-parallel executor. The evaluator's
    // multiway reference is a filtered cross product that counts
    // differently, so counters are compared between capacities instead.
    // The cost-gated path is separately covered by CheckOptimizer.
    ExprPtr forced = ForceMultiwayJoins(c_.query);
    if (forced == c_.query) return;  // join-free: nothing new to exercise
    if (WantCheck("wcoj-eval")) {
      ExpectOracle("wcoj-eval", Eval(forced, *c_.db));
    }
    if (WantCheck("wcoj-batch")) {
      ExpectOracle("wcoj-batch", ExecuteBatched(forced, *c_.db));
    }
    if (WantCheck("wcoj-batch-cap1")) {
      ExpectOracle("wcoj-batch-cap1",
                   ExecuteBatched(forced, *c_.db, JoinAlgo::kAuto, 1));
    }
    if (WantCheck("wcoj-stats-parity")) {
      BatchIteratorPtr cap1_root =
          BuildBatchIterator(forced, *c_.db, JoinAlgo::kAuto, 1);
      Relation cap1_out = DrainBatches(cap1_root.get());
      BatchIteratorPtr batch_root = BuildBatchIterator(forced, *c_.db);
      Relation batch_out = DrainBatches(batch_root.get());
      ExpectCounters("wcoj-stats-parity", "batch-cap1",
                     CollectPipelineStats(cap1_root.get()), "batch",
                     CollectPipelineStats(batch_root.get()));
      ExpectEqual("wcoj-stats-parity-results", cap1_out, batch_out);
    }
    CheckParallelPlan("wcoj-parallel", "wcoj-parallel-stats-parity", forced);
  }

  void CheckAcyclic() {
    // Forced semijoin programs: rewrite every acyclic pure-join region
    // into a fully-reduced Yannakakis program (bottom-up + top-down, no
    // gates) and hold it to the oracle, to exact counter parity with the
    // evaluator, and to the morsel-parallel executor. The cost-gated path
    // is separately covered by CheckOptimizer.
    ExprPtr forced = ForceAcyclicPrograms(c_.query);
    if (forced == c_.query) return;  // no acyclic region: nothing new
    if (WantCheck("acyclic-eval")) {
      ExpectOracle("acyclic-eval", Eval(forced, *c_.db));
    }
    if (WantCheck("acyclic-batch")) {
      ExpectOracle("acyclic-batch", ExecuteBatched(forced, *c_.db));
    }
    if (WantCheck("acyclic-batch-cap1")) {
      ExpectOracle("acyclic-batch-cap1",
                   ExecuteBatched(forced, *c_.db, JoinAlgo::kAuto, 1));
    }
    CheckEvalParity("acyclic-stats-parity", forced);
    CheckParallelPlan("acyclic-parallel", "acyclic-parallel-stats-parity",
                      forced);
  }

  void CheckOptimizer() {
    const bool want_plan = WantCheck("optimizer");
    const bool want_cache = options_.plan_cache && WantCheck("plan-cache");
    if (!want_plan && !want_cache) return;

    Result<OptimizeOutcome> outcome = Optimize(c_.query, *c_.db);
    if (!outcome.ok()) {
      Fail("optimizer", "Optimize failed: " + outcome.status().ToString());
      return;
    }
    if (want_plan) {
      ExpectOracle("optimizer", Eval(outcome->plan, *c_.db));
      ExpectOracle("optimizer-batch", ExecuteBatched(outcome->plan, *c_.db));
    }
    if (want_cache) {
      LruPlanCache cache(4);
      OptimizeOptions cached_options;
      cached_options.plan_cache = &cache;
      Result<OptimizeOutcome> first =
          Optimize(c_.query, *c_.db, cached_options);
      Result<OptimizeOutcome> second =
          Optimize(c_.query, *c_.db, cached_options);
      if (!first.ok() || !second.ok()) {
        Fail("plan-cache", "cached Optimize failed");
        return;
      }
      ++report_->checks_run;
      if (!second->cache_hit) {
        report_->divergences.push_back(
            {"plan-cache", "second optimization of an identical query did "
                           "not hit the cache"});
      }
      ExpectOracle("plan-cache", Eval(second->plan, *c_.db));
    }
  }

  void CheckFeedback() {
    if (!options_.feedback) return;
    bool want_parallel = false;
    for (const int workers : {1, 2, 4}) {
      want_parallel =
          want_parallel ||
          WantCheck("feedback-parallel-w" + std::to_string(workers)) ||
          WantCheck("feedback-parallel-stats-parity-w" +
                    std::to_string(workers));
    }
    const bool want_replan = WantCheck("feedback-replan");
    const bool want_replay = WantCheck("feedback-replay");
    const bool want_batch = WantCheck("feedback-batch");
    if (!want_replan && !want_replay && !want_batch && !want_parallel) {
      return;
    }

    // Close the feedback loop once, deterministically: plan, execute,
    // persist the measured cardinalities, report Q-error, and re-plan
    // against the corrections. The threshold sits below the Q-error floor
    // of 1.0, so the very first RecordExecution marks the entry stale no
    // matter how accurate the static estimates were.
    LruPlanCache cache(4, /*q_error_threshold=*/0.5);
    FeedbackStore store;
    OptimizeOptions opt;
    opt.plan_cache = &cache;
    Result<OptimizeOutcome> first = Optimize(c_.query, *c_.db, opt);
    if (!first.ok()) {
      Fail("feedback-replan",
           "initial Optimize failed: " + first.status().ToString());
      return;
    }
    BatchIteratorPtr executed = BuildBatchIterator(first->plan, *c_.db);
    DrainBatches(executed.get());
    const double q =
        ObservePlanExecution(&store, first->plan->hash(),
                             SnapshotPlanStats(executed.get()),
                             first->op_estimates);
    cache.RecordExecution(c_.query->hash(), q);

    const CardinalityFeedback corrected = store.Snapshot();
    opt.feedback = &corrected;
    Result<OptimizeOutcome> second = Optimize(c_.query, *c_.db, opt);
    if (!second.ok()) {
      Fail("feedback-replan",
           "re-Optimize with feedback failed: " + second.status().ToString());
      return;
    }
    if (want_replan) {
      ++report_->checks_run;
      if (second->cache_hit || !second->replanned) {
        report_->divergences.push_back(
            {"feedback-replan",
             std::string("stale cached plan was not re-optimized "
                         "(cache_hit=") +
                 (second->cache_hit ? "true" : "false") +
                 " replanned=" + (second->replanned ? "true" : "false") +
                 ")"});
      }
    }
    if (want_replay) {
      // The corrected plan replaced the stale entry, so a third
      // optimization must replay it from cache (re-plan happens at most
      // once per staleness mark, not on every lookup).
      Result<OptimizeOutcome> third = Optimize(c_.query, *c_.db, opt);
      ++report_->checks_run;
      if (!third.ok()) {
        report_->divergences.push_back(
            {"feedback-replay",
             "post-replan Optimize failed: " + third.status().ToString()});
      } else if (!third->cache_hit) {
        report_->divergences.push_back(
            {"feedback-replay",
             "re-planned entry did not serve the next lookup from cache"});
      }
    }
    // Feedback may steer plan choice only — never results or counters:
    // the re-planned query must match the oracle, serially and in
    // parallel, with parallel counters identical to the serial batch
    // pipeline's.
    if (want_batch) {
      ExpectOracle("feedback-batch", ExecuteBatched(second->plan, *c_.db));
    }
    CheckParallelPlan("feedback-parallel", "feedback-parallel-stats-parity",
                      second->plan);
  }

  void CheckClosure() {
    if (!WantCheck("closure")) return;
    ClosureOptions closure_options;
    closure_options.only_result_preserving = true;
    closure_options.max_states = options_.max_closure_trees;
    ClosureResult closure = BtClosure(c_.query, closure_options);
    for (const ExprPtr& tree : closure.trees) {
      ExpectOracle("closure", Eval(tree, *c_.db));
    }
  }

  void CheckItEnumeration() {
    if (!WantCheck("it-enum")) return;
    // Theorem 1 only: the whole IT space agrees iff the graph is nice
    // with strong predicates. GraphOf is undefined for wrapped queries.
    if (c_.query->kind() == OpKind::kRestrict) return;
    Result<QueryGraph> graph = GraphOf(c_.query, *c_.db);
    if (!graph.ok()) return;
    if (!CheckFreelyReorderable(*graph).freely_reorderable()) return;
    std::vector<ExprPtr> trees =
        EnumerateIts(*graph, *c_.db, options_.max_enum_trees);
    for (const ExprPtr& tree : trees) {
      ExpectOracle("it-enum", Eval(tree, *c_.db));
    }
  }

  void CheckMetamorphic() {
    if (!options_.metamorphic) return;

    if (WantCheck("canonical-orientation")) {
      ExpectOracle("canonical-orientation",
                   OracleEval(CanonicalOrientation(c_.query), *c_.db));
    }
    if (WantCheck("simplify")) {
      SimplifyResult simplified = SimplifyOuterjoins(c_.query);
      ExpectOracle("simplify", OracleEval(simplified.expr, *c_.db));
    }
    if (WantCheck("goj-rewrite") &&
        BaseRelationsDuplicateFree(c_.query, *c_.db)) {
      int rewrites = 0;
      ExprPtr deepened = LeftDeepenWithGoj(c_.query, &rewrites);
      if (rewrites > 0) {
        ExpectOracle("goj-rewrite", OracleEval(deepened, *c_.db));
      }
    }

    // Every applicable result-preserving basic transform must preserve
    // the oracle result (Lemma 2's direction of Theorem 1).
    std::vector<BtSite> sites = FindApplicableBts(c_.query);
    size_t exercised = 0;
    for (const BtSite& site : sites) {
      if (exercised >= options_.max_bt_sites) break;
      BtClassification classification = ClassifyBt(c_.query, site);
      if (!classification.IsPreserving()) continue;
      const std::string check = "bt:" + classification.rule;
      if (!WantCheck(check)) continue;
      Result<ExprPtr> transformed = ApplyBt(c_.query, site);
      if (!transformed.ok()) {
        Fail(check, "ApplyBt failed on an applicable site: " +
                        transformed.status().ToString());
        continue;
      }
      ++exercised;
      ExpectOracle(check, OracleEval(*transformed, *c_.db));
    }
  }

  void RunAll() {
    CheckEvaluator();
    CheckEngines();
    CheckStatsParity();
    CheckParallel();
    CheckMultiway();
    CheckAcyclic();
    CheckOptimizer();
    CheckFeedback();
    CheckClosure();
    CheckItEnumeration();
    CheckMetamorphic();
  }

 private:
  const FuzzCase& c_;
  const DiffOptions& options_;
  DiffReport* report_;
  Relation oracle_;
  const std::string* only_ = nullptr;
};

}  // namespace

std::string DiffReport::ToString() const {
  if (divergences.empty()) {
    return "ok (" + std::to_string(checks_run) + " checks)";
  }
  std::string out = std::to_string(divergences.size()) + " divergence(s):\n";
  for (const Divergence& d : divergences) {
    out += "[" + d.check + "]\n" + d.detail + "\n";
  }
  return out;
}

DiffReport RunDifferential(const FuzzCase& fuzz_case,
                           const DiffOptions& options) {
  DiffReport report;
  Differ differ(fuzz_case, options, &report);
  differ.RunAll();
  return report;
}

bool CheckStillDiverges(const FuzzCase& fuzz_case, const std::string& check,
                        const DiffOptions& options) {
  DiffReport report;
  Differ differ(fuzz_case, options, &report);
  const std::string only = check.rfind("bt:", 0) == 0 ? "bt:*" : check;
  differ.RestrictTo(&only);
  differ.RunAll();
  for (const Divergence& d : report.divergences) {
    if (d.check == check) return true;
    if (only == "bt:*" && d.check.rfind("bt:", 0) == 0) return true;
    // A result check that shrank into a Status failure still reproduces.
    if (d.check.rfind(check, 0) == 0) return true;
  }
  return false;
}

}  // namespace fro
