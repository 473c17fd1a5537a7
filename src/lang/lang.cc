#include "lang/lang.h"

#include "common/check.h"
#include "exec/build.h"
#include "lang/parser.h"

namespace fro {

Result<QueryRunResult> RunQuery(const NestedDb& nested,
                                const std::string& query_text,
                                const RunOptions& options) {
  FRO_ASSIGN_OR_RETURN(SelectQuery ast, ParseQuery(query_text));
  return RunParsedQuery(nested, ast, options);
}

Result<QueryRunResult> RunParsedQuery(const NestedDb& nested,
                                      const SelectQuery& ast,
                                      const RunOptions& options) {
  QueryRunResult result;
  auto drain_rows = [&result](BatchIterator* root,
                              ExecControl* control) -> Status {
    FRO_ASSIGN_OR_RETURN(result.relation, DrainChecked(root, control));
    return Status::Ok();
  };
  FRO_ASSIGN_OR_RETURN(static_cast<QueryRunReport&>(result),
                       RunParsedQueryWith(nested, ast, options, drain_rows));
  return result;
}

Result<QueryRunReport> RunParsedQueryWith(const NestedDb& nested,
                                          const SelectQuery& ast,
                                          const RunOptions& options,
                                          const DrainFn& drain) {
  FRO_ASSIGN_OR_RETURN(TranslationResult translation,
                       TranslateQuery(nested, ast));
  // The Section 5.3 observation, enforced: query blocks generated by this
  // language are always freely reorderable.
  FRO_CHECK(translation.audit.freely_reorderable())
      << "translated block is not freely reorderable: "
      << translation.audit.detail;

  QueryRunReport result;
  // The cache key is fixed before planning. The feedback snapshot
  // corrects this optimization; it copies the store only if planning
  // reads it, so a plan-cache hit copies nothing.
  const uint64_t cache_key = translation.query->hash();
  CardinalityFeedback feedback_snapshot;
  if (options.optimize) {
    OptimizeOptions opt;
    opt.cost_kind = options.cost_kind;
    opt.plan_cache = options.plan_cache;
    if (options.feedback != nullptr) {
      feedback_snapshot = options.feedback->Snapshot();
      opt.feedback = &feedback_snapshot;
    }
    FRO_ASSIGN_OR_RETURN(result.optimize,
                         Optimize(translation.query, *translation.db, opt));
  } else {
    result.optimize.plan = translation.query;
    result.optimize.classification = "optimization disabled";
  }

  // Execute through the batch executor with a Status-carrying drain:
  // interruption surfaces as kCancelled / kDeadlineExceeded rather than a
  // truncated result.
  ExecControl local_control;
  ExecControl* control = options.control;
  if (control == nullptr && options.deadline.has_value()) {
    control = &local_control;
  }
  if (control != nullptr && options.deadline.has_value()) {
    control->set_deadline(std::chrono::steady_clock::now() +
                          *options.deadline);
  }

  // With threads > 1, parallelizable regions run as morsel-driven
  // exchanges (exec/morsel.h); otherwise the plan is serial.
  ParallelOptions par;
  par.threads = options.threads;
  par.algo = options.join_algo;
  BatchIteratorPtr root =
      BuildParallelBatchIterator(result.optimize.plan, *translation.db, par);
  if (control != nullptr) root->SetControl(control);
  FRO_RETURN_IF_ERROR(drain(root.get(), control));
  result.plan_stats = SnapshotPlanStats(root.get());
  if (options.feedback != nullptr && result.optimize.plan != nullptr) {
    // Close the loop: persist this execution's actuals and report its
    // Q-error to the plan cache, which marks the entry stale once the
    // running error crosses the threshold (the next planning lookup then
    // re-optimizes with the corrected snapshot).
    result.max_q_error = ObservePlanExecution(
        options.feedback, result.optimize.plan->hash(), result.plan_stats,
        result.optimize.op_estimates);
    if (options.plan_cache != nullptr) {
      options.plan_cache->RecordExecution(cache_key, result.max_q_error);
    }
  }
  result.translation = std::move(translation);
  return result;
}

}  // namespace fro
