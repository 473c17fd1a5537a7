// Umbrella header for the fro library — a C++20 reproduction of
// Rosenthal & Galindo-Legaria, "Query Graphs, Implementing Trees, and
// Freely-Reorderable Outerjoins" (SIGMOD 1990).
//
// Typical flow:
//
//   #include "fro.h"
//   using namespace fro;
//
//   Database db;                              // 1. data
//   RelId dept = *db.AddRelation("DEPT", {"dno"});
//   ...
//   ExprPtr q = Expr::OuterJoin(...);         // 2. a join/outerjoin query
//   QueryGraph g = *GraphOf(q, db);           // 3. its order-free graph
//   if (CheckFreelyReorderable(g)             // 4. Theorem 1
//           .freely_reorderable()) {
//     OptimizeOutcome plan = *Optimize(q, db);  // 5. pick any IT: cheapest
//     Relation out = ExecuteBatched(plan.plan, db);  // 6. run it
//   }
//
// Individual headers remain the canonical documentation; this header just
// aggregates the public API.

#ifndef FRO_FRO_H_
#define FRO_FRO_H_

// Substrate: values, relations, predicates, kernels, persistence.
#include "relational/database.h"
#include "relational/ops.h"
#include "relational/text_io.h"

// Algebra: expression trees, evaluation, parsing, transforms, rewrites.
#include "algebra/eval.h"
#include "algebra/expr.h"
#include "algebra/parse.h"
#include "algebra/pushdown.h"
#include "algebra/simplify.h"
#include "algebra/transform.h"

// Batch execution.
#include "exec/batch_operators.h"
#include "exec/build.h"

// Query graphs and the paper's characterizations.
#include "graph/from_expr.h"
#include "graph/nice.h"
#include "graph/query_graph.h"
#include "graph/tree_conditions.h"

// Implementing trees: enumeration, closures, constructive BT paths.
#include "enumerate/bt_path.h"
#include "enumerate/closure.h"
#include "enumerate/it_enum.h"

// Optimization.
#include "optimizer/constraints.h"
#include "optimizer/explain.h"
#include "optimizer/goj_rewrite.h"
#include "optimizer/greedy.h"
#include "optimizer/optimizer.h"

// The Section 5 language.
#include "lang/lang.h"
#include "lang/model.h"
#include "lang/parser.h"
#include "lang/translate.h"

namespace fro {

/// Library version (semantic).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

}  // namespace fro

#endif  // FRO_FRO_H_
