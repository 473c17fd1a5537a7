// The fuzzing harness's reference oracle: a brute-force evaluator built
// directly from the paper's definitions, sharing no code with the
// kernels (relational/ops.h), the materializing evaluator
// (algebra/eval.h), or the batch executor.
//
// Every operator is computed the way Section 1.2 / 2.1 defines it:
//
//   * join        — the filtered cross product: every concatenation
//                   (l, r) whose predicate evaluates to True under
//                   Kleene three-valued logic;
//   * outerjoin   — the join, plus each preserved-side tuple with no
//                   partner, padded with nulls on the other scheme
//                   (null_S, once per *row* — bag semantics);
//   * antijoin    — kept-side tuples with no partner;
//   * semijoin    — kept-side tuples with at least one partner;
//   * GOJ[S]      — eq. 14: the join, plus one padded tuple per
//                   *distinct* S-projection of the left operand that
//                   appears in no join result;
//   * union       — bag union after padding both operands to the union
//                   scheme (the Section 2.1 padding convention);
//   * restrict    — tuples whose predicate evaluates to True;
//   * project     — column mapping, with optional duplicate removal.
//
// Everything is quadratic (or worse) on purpose: the oracle's claim to
// trustworthiness is that each case above is a direct transcription of a
// paper definition with no shared physical machinery — no hash tables,
// no operand swapping, no batch slots — so a bug would have to be
// *common to the transcription and the engines* to go unnoticed. The
// only library surfaces it borrows are the substrate types (Relation,
// Tuple, Scheme) and Predicate::Eval, the single 3VL truth-evaluation
// routine every layer is defined against. docs/TESTING.md discusses why
// this boundary is drawn where it is.

#ifndef FRO_FUZZ_ORACLE_H_
#define FRO_FUZZ_ORACLE_H_

#include "algebra/expr.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace fro {

/// Evaluates `expr` against `db` from first principles. Supports every
/// OpKind. Deterministic: row order is the left-to-right, top-to-bottom
/// nested-loop order of the definitions.
Relation OracleEval(const ExprPtr& expr, const Database& db);

}  // namespace fro

#endif  // FRO_FUZZ_ORACLE_H_
