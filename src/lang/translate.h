// Translation of Section 5 queries into Join/Outerjoin algebra
// (Section 5.2's reformulation).
//
// Each `R * Field` (UnNest) introduces a virtual one-column-per-owner
// relation ValueOfField = { (@owner, value) : value in r.Field } and the
// outerjoin  OJ[NestedIn(@r, @value)](R, ValueOfField), where NestedIn is
// realized as the oid equality R.@oid = V.@owner.
//
// Each `R -> Field` (Link) introduces an independent copy of the target
// entity table (a fresh tuple variable) and the outerjoin
// OJ[LinkedTo(@r, @value)](R, DomainOfField), realized as the oid equality
// R.Field@ref = D.@oid.
//
// Both predicates are equalities on oids, hence strong; each virtual
// relation is null-supplied exactly once and carries no Where-list
// predicates, so the translated query block always satisfies Theorem 1's
// preconditions (the Section 5.3 observation). The translation returns
// the audit so callers can verify this invariant.
//
// Every tuple variable (From item or chain step) is registered in the
// translation's own catalog as a renaming of one of the NestedDb's
// shared flattened relations (NestedDb::Flatten): the translation copies
// no row, and the variable shares its relation version's columns,
// statistics, join tables and tries with every other query.

#ifndef FRO_LANG_TRANSLATE_H_
#define FRO_LANG_TRANSLATE_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/status.h"
#include "graph/nice.h"
#include "graph/query_graph.h"
#include "lang/ast.h"
#include "lang/model.h"
#include "relational/database.h"

namespace fro {

struct TranslationResult {
  /// The flattened relational database: one relation per base variable
  /// plus one per UnNest/Link step, each a renaming of a NestedDb
  /// flattened relation.
  std::unique_ptr<Database> db;
  /// The query graph of the block (join edges from Where equi-conjuncts,
  /// outerjoin edges from chain steps).
  QueryGraph graph;
  /// One implementing tree of `graph` with the Where restrictions applied
  /// on top. Any other implementing tree is equally valid (see `audit`).
  ExprPtr query;
  /// The Section 5.3 observation, verified: the block is freely
  /// reorderable.
  ReorderabilityCheck audit;
};

Result<TranslationResult> TranslateQuery(const NestedDb& nested,
                                         const SelectQuery& ast);

}  // namespace fro

#endif  // FRO_LANG_TRANSLATE_H_
