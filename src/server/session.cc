#include "server/session.h"

#include <chrono>

#include "common/check.h"
#include "lang/lang.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "optimizer/explain.h"
#include "optimizer/optimizer.h"
#include "relational/pretty.h"

namespace fro {

namespace {

// The optimize tail shared by all three verbs: translate the parsed AST
// and plan it through the (possibly cached) optimizer.
struct PlannedQuery {
  TranslationResult translation;
  OptimizeOutcome optimize;
};

Result<PlannedQuery> Plan(const NestedDb& db, const SelectQuery& ast,
                          PlanCacheInterface* cache,
                          const CardinalityFeedback* feedback) {
  PlannedQuery planned;
  FRO_ASSIGN_OR_RETURN(planned.translation, TranslateQuery(db, ast));
  OptimizeOptions options;
  options.plan_cache = cache;
  options.feedback = feedback;
  FRO_ASSIGN_OR_RETURN(
      planned.optimize,
      Optimize(planned.translation.query, *planned.translation.db, options));
  return planned;
}

// The QUERY body: the canonical, unlimited table and its row-count
// footer, rendered into one buffer — or ResourceExhausted, decided from
// the renderer's measured size before anything is written, when the
// body would not fit in a frame (WriteResponse would refuse it and the
// server would drop the connection).
Result<std::string> RenderResult(const ColumnTable& table,
                                 const Catalog& catalog,
                                 const std::string& notes) {
  PrettyOptions pretty;
  pretty.canonical = true;
  pretty.max_rows = static_cast<size_t>(-1);
  const std::string footer =
      "(" + std::to_string(table.NumRows()) + " rows; " + notes + ")\n";
  const PrettyLayout layout(table, &catalog, pretty);
  const size_t bytes = layout.bytes() + footer.size();
  if (bytes > kMaxOkBodyBytes) {
    return ResourceExhausted(
        "result of " + std::to_string(table.NumRows()) + " rows renders to " +
        std::to_string(bytes) + " bytes, over the " +
        std::to_string(kMaxOkBodyBytes) + "-byte response limit");
  }
  return layout.Write(footer);
}

}  // namespace

size_t ThreadBudget::TryAcquire(size_t want) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t granted = want < available_ ? want : available_;
  available_ -= granted;
  return granted;
}

void ThreadBudget::Release(size_t granted) {
  std::lock_guard<std::mutex> lock(mu_);
  available_ += granted;
}

size_t ThreadBudget::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return available_;
}

QuerySession::QuerySession(const NestedDb* db, LruPlanCache* plan_cache,
                           ServerMetrics* metrics, SessionOptions options)
    : db_(db), plan_cache_(plan_cache), metrics_(metrics), options_(options) {
  FRO_CHECK(db_ != nullptr) << "QuerySession requires a database";
}

Result<SelectQuery> QuerySession::ParseCached(const std::string& text) {
  if (options_.ast_cache_capacity == 0) return ParseQuery(text);
  {
    std::lock_guard<std::mutex> lock(ast_mu_);
    auto it = ast_index_.find(text);
    if (it != ast_index_.end()) {
      ++ast_hits_;
      ast_lru_.splice(ast_lru_.begin(), ast_lru_, it->second);
      return it->second->second;  // copy out under the lock
    }
    ++ast_misses_;
  }
  FRO_ASSIGN_OR_RETURN(SelectQuery ast, ParseQuery(text));
  std::lock_guard<std::mutex> lock(ast_mu_);
  if (ast_index_.find(text) == ast_index_.end()) {
    ast_lru_.emplace_front(text, ast);
    ast_index_[text] = ast_lru_.begin();
    while (ast_lru_.size() > options_.ast_cache_capacity) {
      ast_index_.erase(ast_lru_.back().first);
      ast_lru_.pop_back();
    }
  }
  return ast;
}

uint64_t QuerySession::ast_hits() const {
  std::lock_guard<std::mutex> lock(ast_mu_);
  return ast_hits_;
}

uint64_t QuerySession::ast_misses() const {
  std::lock_guard<std::mutex> lock(ast_mu_);
  return ast_misses_;
}

int QuerySession::AcquireThreads(int requested) {
  int want = requested > 0 ? requested : options_.default_query_threads;
  if (want > options_.max_query_threads) want = options_.max_query_threads;
  if (want < 1) want = 1;
  if (want == 1 || options_.thread_budget == nullptr) return want;
  // The serving thread itself always works, so only the extras are
  // admission-controlled; a dry budget degrades the query to serial.
  const size_t granted =
      options_.thread_budget->TryAcquire(static_cast<size_t>(want - 1));
  return 1 + static_cast<int>(granted);
}

void QuerySession::ReleaseThreads(int acquired) {
  if (acquired > 1 && options_.thread_budget != nullptr) {
    options_.thread_budget->Release(static_cast<size_t>(acquired - 1));
  }
}

Response QuerySession::RunQueryVerb(const std::string& text, int threads,
                                    ExecControl* control, bool* cache_hit) {
  Response response;
  Result<SelectQuery> ast = ParseCached(text);
  if (!ast.ok()) {
    response.status = ast.status();
    return response;
  }
  // The one place this request's execution options are assembled:
  // deadline, plan cache, feedback, and worker threads all flow
  // through RunOptions into the Status-carrying RunParsedQueryWith.
  RunOptions run = RunOptions()
                       .WithPlanCache(plan_cache_)
                       .WithThreads(threads)
                       .WithControl(control)
                       .WithFeedback(options_.feedback);
  if (options_.default_deadline_ms > 0) {
    run.WithDeadline(std::chrono::milliseconds(options_.default_deadline_ms));
  }
  // The result stays columnar from the drain to the wire.
  ColumnTable table;
  auto drain_columns = [&table](BatchIterator* root,
                                ExecControl* stop) -> Status {
    FRO_ASSIGN_OR_RETURN(table, DrainColumns(root, stop));
    return Status::Ok();
  };
  Result<QueryRunReport> report =
      RunParsedQueryWith(*db_, *ast, run, drain_columns);
  if (!report.ok()) {
    // Includes kCancelled / kDeadlineExceeded from DrainColumns: the
    // status reaches the wire protocol instead of a truncated table.
    response.status = report.status();
    return response;
  }
  *cache_hit = report->optimize.cache_hit;
  if (metrics_ != nullptr) {
    ForEachOp(report->plan_stats, [this](const PlanOpStats& op, int) {
      metrics_->RecordOperator(op.physical_name, op.stats);
    });
    metrics_->RecordOptimizerPasses(report->optimize.passes);
  }
  Result<std::string> body =
      RenderResult(table, report->translation.db->catalog(),
                   report->optimize.Summary());
  if (body.ok()) {
    response.body = std::move(*body);
  } else {
    response.status = body.status();
  }
  return response;
}

Response QuerySession::RunExplainVerb(const std::string& text) {
  Response response;
  Result<SelectQuery> ast = ParseCached(text);
  if (!ast.ok()) {
    response.status = ast.status();
    return response;
  }
  CardinalityFeedback feedback_snapshot;
  const CardinalityFeedback* feedback = nullptr;
  if (options_.feedback != nullptr) {
    feedback_snapshot = options_.feedback->Snapshot();
    feedback = &feedback_snapshot;
  }
  Result<PlannedQuery> planned = Plan(*db_, *ast, plan_cache_, feedback);
  if (!planned.ok()) {
    response.status = planned.status();
    return response;
  }
  response.body = Explain(planned->optimize.plan, *planned->translation.db);
  response.body += "(" + planned->optimize.Summary() + ")\n";
  return response;
}

Response QuerySession::RunAnalyzeVerb(const std::string& text, int threads) {
  Response response;
  Result<SelectQuery> ast = ParseCached(text);
  if (!ast.ok()) {
    response.status = ast.status();
    return response;
  }
  CardinalityFeedback feedback_snapshot;
  const CardinalityFeedback* feedback = nullptr;
  if (options_.feedback != nullptr) {
    feedback_snapshot = options_.feedback->Snapshot();
    feedback = &feedback_snapshot;
  }
  Result<PlannedQuery> planned = Plan(*db_, *ast, plan_cache_, feedback);
  if (!planned.ok()) {
    response.status = planned.status();
    return response;
  }
  ExplainAnalyzeResult analyzed =
      ExplainAnalyze(planned->optimize.plan, *planned->translation.db,
                     JoinAlgo::kAuto, threads, feedback);
  response.body = analyzed.text;
  // The same per-pass rendering the shell's \analyze uses
  // (FormatPassStats): one code path for pipeline observability.
  response.body += FormatPassStats(planned->optimize.passes);
  response.body += "(" + std::to_string(analyzed.result.NumRows()) +
                   " rows; " +
                   std::to_string(analyzed.base_tuples_read) +
                   " base tuples read)\n";
  return response;
}

Response QuerySession::Execute(const Request& request, ExecControl* control) {
  const auto start = std::chrono::steady_clock::now();
  bool cache_hit = false;
  Response response;
  switch (request.verb) {
    case Verb::kQuery: {
      const int threads = AcquireThreads(request.threads);
      response = RunQueryVerb(request.argument, threads, control, &cache_hit);
      ReleaseThreads(threads);
      break;
    }
    case Verb::kExplain:
      response = RunExplainVerb(request.argument);
      break;
    case Verb::kAnalyze: {
      const int threads = AcquireThreads(request.threads);
      response = RunAnalyzeVerb(request.argument, threads);
      ReleaseThreads(threads);
      break;
    }
    default:
      response.status =
          InvalidArgument(std::string("QuerySession cannot serve verb ") +
                          VerbName(request.verb));
      break;
  }
  if (metrics_ != nullptr) {
    QueryObservation observation;
    observation.status = response.status;
    observation.latency_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    observation.cache_hit = cache_hit;
    metrics_->RecordQuery(observation);
  }
  return response;
}

}  // namespace fro
