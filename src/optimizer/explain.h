// Plan explanation: tree-rendered operator plans annotated with
// estimated cardinalities, plus Graphviz DOT output for expression trees
// and query graphs (the paper's Fig. 1 shows exactly these two views of
// a query).

#ifndef FRO_OPTIMIZER_EXPLAIN_H_
#define FRO_OPTIMIZER_EXPLAIN_H_

#include <string>

#include "algebra/expr.h"
#include "graph/query_graph.h"
#include "optimizer/cardinality.h"
#include "relational/exec_stats.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace fro {

struct ExplainOptions {
  /// Annotate each operator with its estimated output cardinality.
  bool show_cardinalities = true;
  /// Show each operator's predicate.
  bool show_predicates = true;
};

/// Multi-line, indentation-structured rendering, e.g.:
///
///   OuterJoin -> [ORDERS.id=SHIPMENT.order_id]  ~3 rows
///     Join [CUSTOMER.id=ORDERS.cust_id]  ~3 rows
///       Scan CUSTOMER  ~2 rows
///       Scan ORDERS  ~3 rows
///     Scan SHIPMENT  ~2 rows
std::string Explain(const ExprPtr& expr, const Database& db,
                    const ExplainOptions& options = ExplainOptions());

/// Everything EXPLAIN ANALYZE learned from one instrumented execution.
struct ExplainAnalyzeResult {
  /// Tree rendering, one operator per line: the physical operator, the
  /// logical label, `~est rows` next to `actual rows / reads / evals /
  /// probes / time`, and a per-node Q-error for the estimator.
  std::string text;
  /// The query result (the plan is executed for real).
  Relation result;
  /// Counters summed over all non-scan operators; equals the totals the
  /// materializing evaluator reports for the same expression.
  ExecStats totals;
  /// Tuples retrieved from ground relations — Example 1's accounting
  /// (2·10⁷+1 vs. 3), measured through the batch executor.
  uint64_t base_tuples_read = 0;
  /// Worst per-node Q-error, max(est, actual) / min(est, actual) with
  /// both clamped to at least one row.
  double max_q_error = 1.0;
};

/// Executes `expr` through the batch executor with per-operator
/// instrumentation (including wall-clock timing) and renders
/// estimated-versus-actual rows for every plan node. With `threads > 1`,
/// parallelizable regions execute as morsel-driven exchanges
/// (exec/morsel.h): the rendering shows the Exchange node with the
/// node-wise cross-worker merge of its spine beneath it, and every
/// counter still sums to the serial totals. With `feedback`
/// (optimizer/feedback.h), estimates served from runtime corrections are
/// rendered with a `[feedback-corrected]` marker.
ExplainAnalyzeResult ExplainAnalyze(
    const ExprPtr& expr, const Database& db, JoinAlgo algo = JoinAlgo::kAuto,
    int threads = 1, const CardinalityFeedback* feedback = nullptr);

/// Graphviz DOT for an expression tree.
std::string ExprToDot(const ExprPtr& expr, const Database& db);

/// Graphviz DOT for a query graph: join edges undirected, outerjoin
/// edges directed toward the null-supplied relation (as in the paper's
/// figures).
std::string GraphToDot(const QueryGraph& graph, const Database& db);

}  // namespace fro

#endif  // FRO_OPTIMIZER_EXPLAIN_H_
