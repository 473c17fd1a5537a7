// The wcoj subsystem: trie indexes and cursors, the leapfrog triejoin
// against the reference evaluator (nulls, duplicates, mixed numeric
// types), engine stats parity, the optimizer-side variable order and core collapse, and the AGM
// claim over exact work counters.

#include <gtest/gtest.h>

#include <vector>

#include "algebra/eval.h"
#include "common/rng.h"
#include "exec/build.h"
#include "optimizer/cost.h"
#include "optimizer/optimizer.h"
#include "optimizer/wcoj_rewrite.h"
#include "plan_work.h"
#include "testing/datagen.h"
#include "wcoj/leapfrog.h"
#include "wcoj/trie_index.h"

namespace fro {
namespace {

// Finds the first kMultiwayJoin node in a plan, or null.
const Expr* FindMultiway(const ExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  if (expr->is_multiway()) return expr.get();
  if (expr->kind() == OpKind::kLeaf) return nullptr;
  if (const Expr* hit = FindMultiway(expr->left())) return hit;
  return FindMultiway(expr->right());
}

// --- TrieIndex ---------------------------------------------------------

TEST(TrieIndexTest, ExcludesNullKeysKeepsOriginalValues) {
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  db.AddRow(r, {Value::Int(1), Value::Int(10)});
  db.AddRow(r, {Value::Null(), Value::Int(20)});   // null key: excluded
  db.AddRow(r, {Value::Double(1.0), Value::Int(5)});
  db.AddRow(r, {Value::Int(0), Value::Null()});    // null NON-key: kept

  TrieIndex index(db.relation(r), {0});  // levels by position: a
  EXPECT_EQ(index.source_rows(), 4u);
  EXPECT_EQ(index.num_rows(), 3u);
  EXPECT_EQ(index.num_levels(), 1u);
  // Keys are normalized (int widened to double) and sorted; 1 and 1.0
  // share one key run while rows keep their original representation.
  EXPECT_EQ(index.key(0, 0), Value::Double(0));
  EXPECT_EQ(index.key(0, 1), index.key(0, 2));
  EXPECT_EQ(index.row(0).value(0), Value::Int(0));
}

TEST(TrieIndexTest, CursorWalksDistinctKeysAndSeeks) {
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  db.AddRow(r, {Value::Int(0), Value::Int(1)});
  db.AddRow(r, {Value::Int(2), Value::Int(0)});
  db.AddRow(r, {Value::Int(2), Value::Int(0)});
  db.AddRow(r, {Value::Int(2), Value::Int(3)});
  db.AddRow(r, {Value::Int(5), Value::Int(9)});

  TrieIndex index(db.relation(r), {0, 1});  // a, then b
  TrieCursor cursor(&index);
  ASSERT_TRUE(cursor.Open());  // level 0: keys 0, 2, 5
  EXPECT_EQ(cursor.Key(), Value::Double(0));
  cursor.Next();
  EXPECT_EQ(cursor.Key(), Value::Double(2));
  EXPECT_EQ(cursor.CurrentRange().second - cursor.CurrentRange().first, 3u);

  ASSERT_TRUE(cursor.Open());  // level 1 under a=2: keys 0, 3
  EXPECT_EQ(cursor.Key(), Value::Double(0));
  EXPECT_EQ(cursor.CurrentRange().second - cursor.CurrentRange().first, 2u);
  cursor.SeekGeq(Value::Double(1));
  EXPECT_EQ(cursor.Key(), Value::Double(3));
  cursor.Next();
  EXPECT_TRUE(cursor.AtEnd());
  cursor.Up();

  cursor.SeekGeq(Value::Double(3));  // level 0 again
  EXPECT_EQ(cursor.Key(), Value::Double(5));
  cursor.Next();
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_GT(cursor.seeks(), 0u);
}

// --- Leapfrog vs the reference evaluator -------------------------------

// Triangle query over R(a,b), S(c,d), T(e,f): R.b=S.c, S.d=T.e, T.f=R.a.
ExprPtr TriangleQuery(const Database& db) {
  ExprPtr r = Expr::Leaf(0, db);
  ExprPtr s = Expr::Leaf(1, db);
  ExprPtr t = Expr::Leaf(2, db);
  PredicatePtr rs = EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0"));
  PredicatePtr st = EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0"));
  PredicatePtr tr = EqCols(db.Attr("R2", "a1"), db.Attr("R0", "a0"));
  return Expr::Join(Expr::Join(r, s, rs), t, AndOf(st, tr));
}

// 4-cycle over four 2-attribute relations.
ExprPtr FourCycleQuery(const Database& db) {
  ExprPtr a = Expr::Leaf(0, db);
  ExprPtr b = Expr::Leaf(1, db);
  ExprPtr c = Expr::Leaf(2, db);
  ExprPtr d = Expr::Leaf(3, db);
  PredicatePtr ab = EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0"));
  PredicatePtr bc = EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0"));
  PredicatePtr cd = EqCols(db.Attr("R2", "a1"), db.Attr("R3", "a0"));
  PredicatePtr da = EqCols(db.Attr("R3", "a1"), db.Attr("R0", "a0"));
  return Expr::Join(Expr::Join(Expr::Join(a, b, ab), c, bc), d,
                    AndOf(cd, da));
}

void ExpectForcedMultiwayAgrees(const ExprPtr& query, const Database& db) {
  ExprPtr forced = ForceMultiwayJoins(query);
  ASSERT_NE(FindMultiway(forced), nullptr);
  Relation expected = Eval(query, db);

  BatchIteratorPtr batch_root = BuildBatchIterator(forced, db);
  Relation batch_out = DrainBatches(batch_root.get());
  EXPECT_TRUE(BagEquals(batch_out, expected))
      << "batch engine diverged from reference";

  BatchIteratorPtr cap1_root = BuildBatchIterator(forced, db,
                                                  JoinAlgo::kAuto, 1);
  Relation cap1_out = DrainBatches(cap1_root.get());
  EXPECT_TRUE(BagEquals(cap1_out, expected))
      << "capacity-1 batch engine diverged from reference";

  // Every capacity drives the same LeapfrogCore: counters must agree
  // exactly, not just results.
  ExecStats t = CollectPipelineStats(cap1_root.get());
  ExecStats b = CollectPipelineStats(batch_root.get());
  EXPECT_EQ(t.left_reads, b.left_reads);
  EXPECT_EQ(t.emitted, b.emitted);
  EXPECT_EQ(t.probes, b.probes);
  EXPECT_EQ(t.predicate_evals, b.predicate_evals);
}

TEST(LeapfrogTest, TriangleWithNullsAndDuplicates) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  db.AddRow(r0, {Value::Int(0), Value::Int(0)});
  db.AddRow(r0, {Value::Int(0), Value::Int(0)});  // duplicate
  db.AddRow(r0, {Value::Null(), Value::Int(1)});
  db.AddRow(r0, {Value::Int(1), Value::Null()});
  db.AddRow(r1, {Value::Int(0), Value::Int(0)});
  db.AddRow(r1, {Value::Double(0.0), Value::Int(1)});  // joins with Int 0
  db.AddRow(r1, {Value::Null(), Value::Null()});
  db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  db.AddRow(r2, {Value::Int(1), Value::Int(0)});
  db.AddRow(r2, {Value::Int(1), Value::Null()});
  ExpectForcedMultiwayAgrees(TriangleQuery(db), db);
}

TEST(LeapfrogTest, RandomTrianglesMatchReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(DeriveSeed(0x7c03, seed));
    RandomRowsOptions rows;
    rows.rows_max = 8;
    rows.domain = 3;
    rows.null_prob = 0.3;
    rows.skew = 2;
    std::unique_ptr<Database> db = MakeRandomDatabase(3, 2, rows, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectForcedMultiwayAgrees(TriangleQuery(*db), *db);
  }
}

TEST(LeapfrogTest, RandomFourCyclesMatchReference) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(DeriveSeed(0x4c9c, seed));
    RandomRowsOptions rows;
    rows.rows_max = 6;
    rows.domain = 3;
    rows.null_prob = 0.25;
    rows.skew = 1;
    std::unique_ptr<Database> db = MakeRandomDatabase(4, 2, rows, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectForcedMultiwayAgrees(FourCycleQuery(*db), *db);
  }
}

TEST(LeapfrogTest, EmptyOperandYieldsEmptyResult) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  *db.AddRelation("R1", {"a0", "a1"});  // empty
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  db.AddRow(r0, {Value::Int(0), Value::Int(0)});
  db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  ExprPtr forced = ForceMultiwayJoins(TriangleQuery(db));
  EXPECT_EQ(ExecuteBatched(forced, db).NumRows(), 0u);
}

// --- Optimizer side ----------------------------------------------------

TEST(WcojRewriteTest, ForceCollapsesWholeJoinRegion) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  db.AddRow(r0, {Value::Int(0), Value::Int(0)});
  db.AddRow(r1, {Value::Int(0), Value::Int(0)});
  db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  ExprPtr forced = ForceMultiwayJoins(TriangleQuery(db));
  ASSERT_TRUE(forced->is_multiway());
  EXPECT_EQ(forced->mj_children().size(), 3u);
  EXPECT_FALSE(forced->mj_var_order().empty());
}

TEST(WcojRewriteTest, ChooseVarOrderIsDeterministicAndComplete) {
  Database db;
  *db.AddRelation("R0", {"a0", "a1"});
  *db.AddRelation("R1", {"a0", "a1"});
  *db.AddRelation("R2", {"a0", "a1"});
  std::vector<ExprPtr> operands = {Expr::Leaf(0, db), Expr::Leaf(1, db),
                                   Expr::Leaf(2, db)};
  PredicatePtr pred = AndOf(
      AndOf(EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0")),
            EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0"))),
      EqCols(db.Attr("R2", "a1"), db.Attr("R0", "a0")));
  CostModel cost(db, CostKind::kCout);
  std::vector<AttrId> order =
      ChooseVarOrder(operands, pred, &cost.estimator());
  // The triangle has exactly three inter-operand equality classes.
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order, ChooseVarOrder(operands, pred, &cost.estimator()));
  // Heuristic path (no estimator) is deterministic too.
  EXPECT_EQ(ChooseVarOrder(operands, pred, nullptr),
            ChooseVarOrder(operands, pred, nullptr));
}

TEST(WcojRewriteTest, AcyclicPlanIsNeverCollapsed) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  db.AddRow(r0, {Value::Int(0), Value::Int(0)});
  db.AddRow(r1, {Value::Int(0), Value::Int(0)});
  db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  // Chain R0 - R1 - R2: no cycle, no core.
  ExprPtr chain = Expr::Join(
      Expr::Join(Expr::Leaf(0, db), Expr::Leaf(1, db),
                 EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0"))),
      Expr::Leaf(2, db),
      EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0")));
  CostModel cost(db, CostKind::kCout);
  WcojRewriteResult result = ApplyWcoj(chain, db, cost);
  EXPECT_EQ(result.cores_collapsed, 0);
  EXPECT_EQ(result.expr, chain);
}

TEST(WcojRewriteTest, SkewedTriangleCollapsesAndStaysCorrect) {
  // Heavy-hitter join keys: the estimated binary intermediate is
  // quadratic while the multiway plan only scans the operands, so the
  // cost gate accepts the collapse.
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  for (int i = 0; i < 8; ++i) {
    db.AddRow(r0, {Value::Int(0), Value::Int(0)});
    db.AddRow(r1, {Value::Int(0), Value::Int(0)});
    db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  }
  ExprPtr query = TriangleQuery(db);
  CostModel cost(db, CostKind::kCout);
  WcojRewriteResult result = ApplyWcoj(query, db, cost);
  EXPECT_EQ(result.cores_collapsed, 1);
  EXPECT_NE(FindMultiway(result.expr), nullptr);
  EXPECT_TRUE(BagEquals(Eval(result.expr, db), Eval(query, db)));
}

TEST(WcojRewriteTest, OptimizeReportsMultiwayCollapse) {
  Database db;
  RelId r0 = *db.AddRelation("R0", {"a0", "a1"});
  RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
  RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
  for (int i = 0; i < 8; ++i) {
    db.AddRow(r0, {Value::Int(0), Value::Int(0)});
    db.AddRow(r1, {Value::Int(0), Value::Int(0)});
    db.AddRow(r2, {Value::Int(0), Value::Int(0)});
  }
  ExprPtr query = TriangleQuery(db);
  Result<OptimizeOutcome> outcome = Optimize(query, db);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->PassApplications("wcoj"), 1);
  EXPECT_TRUE(BagEquals(Eval(outcome->plan, db), Eval(query, db)));

  // Dropping the pass keeps the plan binary.
  OptimizeOptions off;
  off.pipeline = RewritePipeline::Default().Without("wcoj");
  Result<OptimizeOutcome> binary = Optimize(query, db, off);
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary->PassApplications("wcoj"), 0);
  EXPECT_EQ(FindMultiway(binary->plan), nullptr);
}

// --- The AGM bound over exact counters ---------------------------------

// The AGM-hard edge relation: (0, j) and (j, 0) for j in [1, m], plus
// (0, 0). Key 0 is a heavy hitter on both columns, so every pairwise
// join of two copies holds ~(m+1)^2 rows while the triangle's output
// stays O(m) (Ngo et al., Worst-Case Optimal Join Algorithms).
void FillAgmEdges(Database* db, RelId rel, int m) {
  db->AddRow(rel, {Value::Int(0), Value::Int(0)});
  for (int j = 1; j <= m; ++j) {
    db->AddRow(rel, {Value::Int(0), Value::Int(j)});
    db->AddRow(rel, {Value::Int(j), Value::Int(0)});
  }
}

TEST(WcojWorkTest, LeapfrogTriangleLeadGrowsWithM) {
  // Work (reads + probes + evals + emitted), leapfrog vs binary:
  // 1,461 vs 8,810 at m = 50, 2,911 vs 32,610 at 100 and 5,811 vs
  // 125,210 at 200 -- a 6.0x, 11.2x and 21.6x lead.
  double previous_lead = 0;
  for (const int m : {50, 100, 200}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    Database db;
    for (int i = 0; i < 3; ++i) {
      FillAgmEdges(&db, *db.AddRelation("R" + std::to_string(i),
                                        {"a0", "a1"}), m);
    }
    const ExprPtr query = TriangleQuery(db);
    // The default pipeline's cost gate must collapse the core ...
    Result<OptimizeOutcome> chosen = Optimize(query, db);
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    ASSERT_NE(FindMultiway(chosen->plan), nullptr);
    // ... against the best binary plan the DP finds without it.
    OptimizeOptions off;
    off.pipeline =
        RewritePipeline::Default().Without("wcoj").Without("acyclic");
    Result<OptimizeOutcome> binary = Optimize(query, db, off);
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    ASSERT_EQ(FindMultiway(binary->plan), nullptr);

    const uint64_t leapfrog_work = PlanWork(chosen->plan, db);
    const uint64_t binary_work = PlanWork(binary->plan, db);
    EXPECT_LT(leapfrog_work, binary_work);
    const double lead = static_cast<double>(binary_work) /
                        static_cast<double>(leapfrog_work);
    EXPECT_GT(lead, previous_lead);
    previous_lead = lead;
  }
}

}  // namespace
}  // namespace fro
