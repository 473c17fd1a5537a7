// The acyclic subsystem: GYO ear reduction (chains, stars, eq-class
// collapse, cross-join forests, the 64-variable cap), Yannakakis
// semijoin programs held to the binary plan's bag on both engines with
// counter parity, safe-subjoin gating through the estimator, the
// cost-gated ApplyAcyclic rewrite, and the optimizer pipeline end to
// end (Section 4 simplification unlocking the fast path).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acyclic/gyo.h"
#include "acyclic/yannakakis.h"
#include "algebra/eval.h"
#include "exec/build.h"
#include "optimizer/acyclic_rewrite.h"
#include "optimizer/cost.h"
#include "optimizer/optimizer.h"
#include "optimizer/rewrite_pass.h"
#include "testing/datagen.h"

namespace fro {
namespace {

// Counts kSemijoin nodes in a plan.
int CountSemijoins(const ExprPtr& expr) {
  if (expr == nullptr || expr->kind() == OpKind::kLeaf) return 0;
  int n = expr->kind() == OpKind::kSemijoin ? 1 : 0;
  if (expr->is_multiway()) {
    for (const ExprPtr& child : expr->mj_children()) {
      n += CountSemijoins(child);
    }
    return n;
  }
  return n + CountSemijoins(expr->left()) + CountSemijoins(expr->right());
}

// A database of n relations R0(a,b), R1(a,b), ...; operands are the
// leaves and tests wire conjuncts between named attributes.
class GyoTest : public ::testing::Test {
 protected:
  void Init(int n, int attrs_per_rel = 2) {
    static const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
    for (int i = 0; i < n; ++i) {
      std::vector<std::string> attrs;
      for (int j = 0; j < attrs_per_rel; ++j) attrs.push_back(kNames[j]);
      RelId rel = *db_.AddRelation("R" + std::to_string(i), attrs);
      operands_.push_back(Expr::Leaf(rel, db_));
    }
  }

  AttrId At(int rel, const char* attr) {
    return db_.Attr("R" + std::to_string(rel), attr);
  }

  void Eq(int u, const char* ua, int v, const char* va) {
    conjuncts_.push_back(EqCols(At(u, ua), At(v, va)));
  }

  JoinTree Reduce() {
    return GyoReduce(BuildJoinHypergraph(operands_, conjuncts_));
  }

  // Every non-root operand appears in removal_order before its parent
  // (bottom-up), and parent pointers are acyclic.
  void ExpectBottomUp(const JoinTree& tree) {
    std::vector<bool> removed(tree.parent.size(), false);
    for (int op : tree.removal_order) {
      ASSERT_GE(tree.parent[op], 0);
      EXPECT_FALSE(removed[tree.parent[op]])
          << "operand " << op << " removed after its parent";
      removed[op] = true;
    }
  }

  Database db_;
  std::vector<ExprPtr> operands_;
  std::vector<PredicatePtr> conjuncts_;
};

TEST_F(GyoTest, ChainIsAcyclic) {
  Init(4);
  Eq(0, "b", 1, "a");
  Eq(1, "b", 2, "a");
  Eq(2, "b", 3, "a");
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  EXPECT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.removal_order.size(), 3u);
  ExpectBottomUp(tree);
}

TEST_F(GyoTest, StarIsAcyclic) {
  Init(4);
  Eq(0, "a", 1, "a");
  Eq(0, "b", 2, "a");
  Eq(0, "b", 3, "b");
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  // The hub covers every leaf's variables, so the star reduces fully to
  // one tree. Equal-variable-set edges may chain rather than all point
  // at the hub (the tie-break is deterministic but order-dependent), so
  // only the structural invariants are pinned.
  EXPECT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.removal_order.size(), 3u);
  ExpectBottomUp(tree);
}

TEST_F(GyoTest, TriangleOnDistinctVariablesIsCyclic) {
  Init(3);
  Eq(0, "b", 1, "a");
  Eq(1, "b", 2, "a");
  Eq(2, "b", 0, "a");
  JoinTree tree = Reduce();
  EXPECT_FALSE(tree.acyclic);
  EXPECT_TRUE(tree.removal_order.empty());
}

TEST_F(GyoTest, TriangleCollapsedToOneVariableIsAcyclic) {
  // All three pairwise conjuncts join transitively-equal attributes:
  // the equivalence classes merge into ONE join variable, every edge
  // covers it, and the "triangle" reduces. The eq-class collapse is
  // what distinguishes alpha-acyclicity from graph acyclicity.
  Init(3);
  Eq(0, "a", 1, "a");
  Eq(1, "a", 2, "a");
  Eq(2, "a", 0, "a");
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  EXPECT_EQ(tree.roots.size(), 1u);
  ExpectBottomUp(tree);
}

TEST_F(GyoTest, CrossJoinIslandsReduceToAForest) {
  Init(4);
  Eq(0, "b", 1, "a");  // island {0, 1}
  Eq(2, "b", 3, "a");  // island {2, 3}
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  EXPECT_EQ(tree.roots.size(), 2u);
  ExpectBottomUp(tree);
}

TEST_F(GyoTest, ContainedEdgeIsAnEarOfItsContainer) {
  // R1's variables {ab-class} are a subset of R0's {ab-class, b-class}:
  // R1 must reduce as an ear with R0 (its container) as parent.
  Init(3);
  Eq(0, "a", 1, "a");
  Eq(0, "b", 2, "a");
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  EXPECT_EQ(tree.roots.size(), 1u);
  ExpectBottomUp(tree);
  // R1's single variable is strictly contained in R0's set, so R1 is
  // the first ear and R0 is its recorded parent.
  EXPECT_EQ(tree.parent[1], 0);
}

TEST_F(GyoTest, IsolatedOperandIsItsOwnRoot) {
  // R2 shares no join variable: a cross-join island of one.
  Init(3);
  Eq(0, "b", 1, "a");
  JoinTree tree = Reduce();
  ASSERT_TRUE(tree.acyclic);
  EXPECT_EQ(tree.roots.size(), 2u);
  EXPECT_EQ(tree.parent[2], -1);
}

TEST(GyoCapTest, MoreThan64VariablesReportsCyclic) {
  // Two 70-attribute relations joined attribute-by-attribute: 70 join
  // variables overflow the 64-bit edge representation, the hypergraph
  // is flagged !ok, and GyoReduce conservatively reports cyclic.
  Database db;
  std::vector<std::string> attrs;
  for (int j = 0; j < 70; ++j) attrs.push_back("a" + std::to_string(j));
  RelId r0 = *db.AddRelation("R0", attrs);
  RelId r1 = *db.AddRelation("R1", attrs);
  std::vector<ExprPtr> operands = {Expr::Leaf(r0, db), Expr::Leaf(r1, db)};
  std::vector<PredicatePtr> conjuncts;
  for (int j = 0; j < 70; ++j) {
    conjuncts.push_back(EqCols(db.Attr("R0", attrs[j]),
                               db.Attr("R1", attrs[j])));
  }
  JoinHypergraph hypergraph = BuildJoinHypergraph(operands, conjuncts);
  EXPECT_FALSE(hypergraph.ok);
  EXPECT_FALSE(GyoReduce(hypergraph).acyclic);
}

// --- Yannakakis programs ------------------------------------------------

// A 3-chain R0(a,b) - R1(b,c) - R2(c,d) where most of R1 dangles: rows
// dead toward R2, dead toward R0, or null-keyed. Returns the database;
// the query helpers below build operands/conjuncts against it.
class YannakakisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r0_ = *db_.AddRelation("R0", {"a", "b"});
    r1_ = *db_.AddRelation("R1", {"b", "c"});
    r2_ = *db_.AddRelation("R2", {"c", "d"});
    // R0: fan of 3 rows on the live key 0, one dangling row.
    for (int i = 0; i < 3; ++i) {
      db_.AddRow(r0_, {Value::Int(i), Value::Int(0)});
    }
    db_.AddRow(r0_, {Value::Int(9), Value::Int(7)});
    // R1: one live row (b=0, c=0), rows dead toward R2, dead toward R0,
    // and a null join key.
    db_.AddRow(r1_, {Value::Int(0), Value::Int(0)});
    db_.AddRow(r1_, {Value::Int(0), Value::Int(8)});
    db_.AddRow(r1_, {Value::Int(6), Value::Int(0)});
    db_.AddRow(r1_, {Value::Null(), Value::Int(0)});
    // R2: fan of 2 rows on the live key 0, one dangling row.
    for (int i = 0; i < 2; ++i) {
      db_.AddRow(r2_, {Value::Int(0), Value::Int(i)});
    }
    db_.AddRow(r2_, {Value::Int(5), Value::Int(5)});

    operands_ = {Expr::Leaf(r0_, db_), Expr::Leaf(r1_, db_),
                 Expr::Leaf(r2_, db_)};
    conjuncts_ = {EqCols(db_.Attr("R0", "b"), db_.Attr("R1", "b")),
                  EqCols(db_.Attr("R1", "c"), db_.Attr("R2", "c"))};
    binary_ = Expr::Join(
        Expr::Join(operands_[0], operands_[1], conjuncts_[0]),
        operands_[2], conjuncts_[1]);
  }

  Database db_;
  RelId r0_, r1_, r2_;
  std::vector<ExprPtr> operands_;
  std::vector<PredicatePtr> conjuncts_;
  ExprPtr binary_;
};

TEST_F(YannakakisTest, ForcedProgramMatchesBinaryPlanOnBothEngines) {
  JoinTree tree = GyoReduce(BuildJoinHypergraph(operands_, conjuncts_));
  ASSERT_TRUE(tree.acyclic);
  for (const bool top_down : {false, true}) {
    YannakakisOptions options;
    options.top_down = top_down;
    SemijoinProgram program =
        PlanYannakakis(operands_, conjuncts_, tree, nullptr, options);
    ASSERT_NE(program.expr, nullptr);
    // The tree re-uses reduced operands in several joins (no CSE), so
    // the path count is at least the number of inserted reductions.
    EXPECT_GE(CountSemijoins(program.expr), program.semijoins);
    EXPECT_GE(program.semijoins, top_down ? 3 : 2);

    const Relation want = Eval(binary_, db_);
    EXPECT_TRUE(BagEquals(want, Eval(program.expr, db_)));
    EXPECT_TRUE(BagEquals(want, ExecuteBatched(program.expr, db_)));
  }
}

TEST_F(YannakakisTest, BatchEngineMatchesEvalOnProgramStats) {
  JoinTree tree = GyoReduce(BuildJoinHypergraph(operands_, conjuncts_));
  ASSERT_TRUE(tree.acyclic);
  SemijoinProgram program =
      PlanYannakakis(operands_, conjuncts_, tree, nullptr);
  ASSERT_GE(program.semijoins, 2);

  EvalStats eval_stats;
  Relation eval_out = Eval(program.expr, db_, EvalOptions(), &eval_stats);
  BatchIteratorPtr batch_root = BuildBatchIterator(program.expr, db_);
  Relation batch_out = DrainBatches(batch_root.get());
  EXPECT_TRUE(BagEquals(eval_out, batch_out));

  const ExecStats& t = eval_stats.totals;
  const ExecStats b = CollectPipelineStats(batch_root.get());
  EXPECT_EQ(t.left_reads, b.left_reads);
  EXPECT_EQ(t.right_reads, b.right_reads);
  EXPECT_EQ(t.emitted, b.emitted);
  EXPECT_EQ(t.probes, b.probes);
  EXPECT_EQ(t.predicate_evals, b.predicate_evals);
}

TEST_F(YannakakisTest, EstimatorGateSkipsReductionsThatKeepEverything) {
  // A fully-connected chain: every R0 and R1 row survives every
  // semijoin, so the estimated survivor fraction is ~1 and the gate
  // must skip all reductions (the program degenerates to plain joins).
  Database db;
  RelId s0 = *db.AddRelation("R0", {"a", "b"});
  RelId s1 = *db.AddRelation("R1", {"b", "c"});
  RelId s2 = *db.AddRelation("R2", {"c", "d"});
  for (int i = 0; i < 4; ++i) {
    db.AddRow(s0, {Value::Int(i), Value::Int(0)});
    db.AddRow(s1, {Value::Int(0), Value::Int(0)});
    db.AddRow(s2, {Value::Int(0), Value::Int(i)});
  }
  std::vector<ExprPtr> operands = {Expr::Leaf(s0, db), Expr::Leaf(s1, db),
                                   Expr::Leaf(s2, db)};
  std::vector<PredicatePtr> conjuncts = {
      EqCols(db.Attr("R0", "b"), db.Attr("R1", "b")),
      EqCols(db.Attr("R1", "c"), db.Attr("R2", "c"))};
  JoinTree tree = GyoReduce(BuildJoinHypergraph(operands, conjuncts));
  ASSERT_TRUE(tree.acyclic);

  CardinalityEstimator estimator(db);
  SemijoinProgram gated =
      PlanYannakakis(operands, conjuncts, tree, &estimator);
  EXPECT_EQ(gated.semijoins, 0);
  // Forced mode still reduces — the gate, not the planner, skipped.
  SemijoinProgram forced =
      PlanYannakakis(operands, conjuncts, tree, nullptr);
  EXPECT_GE(forced.semijoins, 2);
}

TEST_F(YannakakisTest, ApplyAcyclicIsCostGatedAndPreservesResults) {
  CostModel cost_model(db_, CostKind::kCout);
  AcyclicRewriteResult rewritten = ApplyAcyclic(binary_, db_, cost_model);
  ASSERT_NE(rewritten.expr, nullptr);
  EXPECT_TRUE(BagEquals(Eval(binary_, db_), Eval(rewritten.expr, db_)));
  if (rewritten.programs_planned > 0) {
    // Whenever the gate fires, the program must actually be cheaper.
    EXPECT_GE(rewritten.semijoins, 1);
    EXPECT_LT(cost_model.PlanCost(rewritten.expr),
              cost_model.PlanCost(binary_));
  }
}

TEST_F(YannakakisTest, ForceAcyclicProgramsLeavesCyclicRegionsAlone) {
  // A triangle on distinct variables is cyclic: the fuzzing rewrite
  // must return the query unchanged.
  Database db;
  RelId t0 = *db.AddRelation("R0", {"a", "b"});
  RelId t1 = *db.AddRelation("R1", {"b", "c"});
  RelId t2 = *db.AddRelation("R2", {"c", "a"});
  db.AddRow(t0, {Value::Int(0), Value::Int(0)});
  db.AddRow(t1, {Value::Int(0), Value::Int(0)});
  db.AddRow(t2, {Value::Int(0), Value::Int(0)});
  ExprPtr triangle = Expr::Join(
      Expr::Join(Expr::Leaf(t0, db), Expr::Leaf(t1, db),
                 EqCols(db.Attr("R0", "b"), db.Attr("R1", "b"))),
      Expr::Leaf(t2, db),
      Predicate::And({EqCols(db.Attr("R1", "c"), db.Attr("R2", "c")),
                      EqCols(db.Attr("R2", "a"), db.Attr("R0", "a"))}));
  EXPECT_EQ(ForceAcyclicPrograms(triangle), triangle);
  // The chain, in contrast, is rewritten into a semijoin program.
  ExprPtr forced = ForceAcyclicPrograms(binary_);
  EXPECT_NE(forced, binary_);
  EXPECT_GE(CountSemijoins(forced), 2);
  EXPECT_TRUE(BagEquals(Eval(binary_, db_), Eval(forced, db_)));
}

// --- the optimizer pipeline end to end ----------------------------------

TEST_F(YannakakisTest, OptimizerRunsTheAcyclicPassAndStaysCorrect) {
  Result<OptimizeOutcome> outcome = Optimize(binary_, db_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const PassStats* pass = outcome->FindPass("acyclic");
  ASSERT_NE(pass, nullptr);
  EXPECT_TRUE(pass->ran);
  EXPECT_TRUE(BagEquals(Eval(binary_, db_), Eval(outcome->plan, db_)));
  // Disabling the pass through the pipeline keeps the plan semijoin-free.
  OptimizeOptions off;
  off.pipeline = RewritePipeline::Default().Without("acyclic");
  Result<OptimizeOutcome> without = Optimize(binary_, db_, off);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->FindPass("acyclic"), nullptr);
  EXPECT_EQ(CountSemijoins(without->plan), 0);
  EXPECT_TRUE(BagEquals(Eval(binary_, db_), Eval(without->plan, db_)));
}

TEST_F(YannakakisTest, StrongRestrictionUnlocksTheFastPathThroughSimplify) {
  // The Section 4 interplay: an outerjoin shell node D under a strong
  // restriction. The simplifier converts the outerjoin to a join, the
  // enlarged region is acyclic, and the acyclic pass sees 4 operands.
  RelId d = *db_.AddRelation("D", {"d"});
  db_.AddRow(d, {Value::Int(0)});
  db_.AddRow(d, {Value::Int(5)});
  ExprPtr shell = Expr::OuterJoin(
      binary_, Expr::Leaf(d, db_),
      EqCols(db_.Attr("R2", "d"), db_.Attr("D", "d")));
  ExprPtr query = Expr::Restrict(
      shell, CmpLit(CmpOp::kEq, db_.Attr("D", "d"), Value::Int(0)));

  Result<OptimizeOutcome> outcome = Optimize(query, db_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome->PassApplications("simplify"), 1);
  const PassStats* pass = outcome->FindPass("acyclic");
  ASSERT_NE(pass, nullptr);
  EXPECT_TRUE(pass->ran);
  EXPECT_TRUE(BagEquals(Eval(query, db_), Eval(outcome->plan, db_)));
  EXPECT_TRUE(BagEquals(Eval(query, db_),
                        ExecuteBatched(outcome->plan, db_)));
}

}  // namespace
}  // namespace fro
