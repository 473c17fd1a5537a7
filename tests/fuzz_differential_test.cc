// The differential harness end to end: randomized seeds must be
// divergence-free, a synthetically injected engine bug must be caught
// and shrunk to a tiny repro, and corpus serialization must round-trip.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "fuzz/case_gen.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "optimizer/goj_rewrite.h"
#include "optimizer/optimizer.h"
#include "relational/ops.h"

namespace fro {
namespace {

// The tier-1 sweep: every check on a spread of seeds across all
// profiles. (CI's fuzz tier runs 500+ cases; this keeps tier 1 fast.)
TEST(FuzzDifferentialTest, RandomSeedsAreDivergenceFree) {
  for (uint64_t i = 0; i < 60; ++i) {
    FuzzCase fuzz_case = GenerateFuzzCase(DeriveSeed(0xd1ff, i));
    DiffReport report = RunDifferential(fuzz_case);
    EXPECT_TRUE(report.ok())
        << "case seed " << fuzz_case.seed << " profile "
        << FuzzProfileName(fuzz_case.profile) << "\n"
        << report.ToString();
  }
}

TEST(FuzzDifferentialTest, CaseGenerationIsDeterministic) {
  for (uint64_t seed : {1ull, 0xdecafull, 0x123456789abcull}) {
    FuzzCase a = GenerateFuzzCase(seed);
    FuzzCase b = GenerateFuzzCase(seed);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.query->Fingerprint(), b.query->Fingerprint());
    ASSERT_EQ(a.db->num_relations(), b.db->num_relations());
    for (RelId rel = 0; rel < static_cast<RelId>(a.db->num_relations());
         ++rel) {
      EXPECT_TRUE(BagEquals(a.db->relation(rel), b.db->relation(rel)));
    }
  }
}

// A buggy "engine" that silently drops outerjoin padding (exactly the
// mutation class a missing null-extension bug produces): evaluate the
// query with every outerjoin demoted to an inner join.
Relation EvalWithPaddingDropped(const ExprPtr& expr, const Database& db) {
  if (expr->is_leaf()) return OracleEval(expr, db);
  if (expr->kind() == OpKind::kOuterJoin) {
    ExprPtr as_join = Expr::Join(expr->left(), expr->right(), expr->pred());
    return OracleEval(as_join, db);
  }
  return OracleEval(expr, db);
}

// The acceptance-bar scenario: an injected engine bug must be caught by
// a differential sweep and shrunk to a <= 5-tuple repro that still
// serializes, parses back, and reproduces.
TEST(FuzzShrinkTest, InjectedPaddingBugShrinksToTinyRepro) {
  // The synthetic bug only fires when padding actually happens, so the
  // interesting-case predicate is "buggy engine disagrees with oracle".
  auto diverges = [](const FuzzCase& candidate) {
    return !BagEquals(OracleEval(candidate.query, *candidate.db),
                      EvalWithPaddingDropped(candidate.query, *candidate.db));
  };

  int caught = 0;
  for (uint64_t i = 0; i < 40 && caught < 3; ++i) {
    FuzzCase fuzz_case = GenerateFuzzCase(DeriveSeed(0xbadbeef, i));
    if (!diverges(fuzz_case)) continue;
    ++caught;

    ShrinkStats stats;
    FuzzCase shrunk = ShrinkCaseWith(fuzz_case, diverges, &stats);
    EXPECT_TRUE(diverges(shrunk)) << "shrinking lost the bug";
    EXPECT_LE(CaseTupleCount(shrunk), 5u)
        << "seed " << fuzz_case.seed << ": shrunk repro still has "
        << CaseTupleCount(shrunk) << " tuples";
    EXPECT_LE(CaseTupleCount(shrunk), CaseTupleCount(fuzz_case));
    EXPECT_GT(stats.property_evaluations, 0);

    // The minimized case must survive the corpus round trip and still
    // reproduce after reparsing.
    Result<CorpusCase> reloaded =
        ParseCorpusCase(CorpusCaseToText(shrunk, "synthetic-padding"));
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->check, "synthetic-padding");
    EXPECT_TRUE(diverges(reloaded->fuzz_case));
  }
  EXPECT_GE(caught, 1) << "generator never produced a padding case";
}

// ShrinkCase (the named-check entry point) drives CheckStillDiverges;
// on a healthy library nothing diverges, so the predicate must be false
// and a shrink request must leave the case intact.
TEST(FuzzShrinkTest, HealthyCaseDoesNotDiverge) {
  FuzzCase fuzz_case = GenerateFuzzCase(0x5eed);
  EXPECT_FALSE(CheckStillDiverges(fuzz_case, "batch-engine"));
  EXPECT_FALSE(CheckStillDiverges(fuzz_case, "optimizer"));
  EXPECT_FALSE(CheckStillDiverges(fuzz_case, "bt:*"));
}

// The GOJ gate the fuzzer forced into the optimizer: with a duplicated
// preserved-side row, Optimize must not left-deepen with GOJ, and its
// plan must match the oracle. (This is the shrunken fuzzer finding
// tests/corpus/goj-duplicate-rows.case, inlined.)
TEST(FuzzDifferentialTest, OptimizerSkipsGojOnDuplicateRows) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0"});
  RelId r1 = *db.AddRelation("R1", {"a0"});
  RelId r2 = *db.AddRelation("R2", {"a0"});
  RelId r3 = *db.AddRelation("R3", {"a0"});
  AttrId a0 = db.Attr("R0", "a0");
  AttrId a1 = db.Attr("R1", "a0");
  AttrId a2 = db.Attr("R2", "a0");
  AttrId a3 = db.Attr("R3", "a0");
  db.AddRow(r0, {Value::Int(1)});
  db.AddRow(r1, {Value::Int(1)});
  db.AddRow(r1, {Value::Int(1)});  // the duplicate that breaks identity 15
  ExprPtr query = Expr::OuterJoin(
      Expr::Join(Expr::Leaf(r0, db), Expr::Leaf(r1, db), EqCols(a0, a1)),
      Expr::Join(Expr::Leaf(r2, db), Expr::Leaf(r3, db), EqCols(a2, a3)),
      EqCols(a1, a2),
      /*preserves_left=*/true);
  EXPECT_FALSE(BaseRelationsDuplicateFree(query, db));

  Result<OptimizeOutcome> outcome = Optimize(query, db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->PassApplications("goj"), 0);
  EXPECT_TRUE(BagEquals(Eval(outcome->plan, db), OracleEval(query, db)));

  // Removing the duplicate re-enables the rewrite on the same shape.
  db.SetRows(r1, {Tuple({Value::Int(1)})});
  EXPECT_TRUE(BaseRelationsDuplicateFree(query, db));
  Result<OptimizeOutcome> dedup_outcome = Optimize(query, db);
  ASSERT_TRUE(dedup_outcome.ok());
  EXPECT_GT(dedup_outcome->PassApplications("goj"), 0);
  EXPECT_TRUE(
      BagEquals(Eval(dedup_outcome->plan, db), OracleEval(query, db)));
}

}  // namespace
}  // namespace fro
