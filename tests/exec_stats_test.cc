// Instrumented-execution tests: the per-operator counters kept by the
// batch executor must agree, operator by operator, with the kernel
// counters the materializing evaluator accumulates; EXPLAIN ANALYZE must
// reproduce Example 1's retrieval arithmetic (2n+1 base tuples for the
// naive order, 3 for the reordered one) through the executor; plus
// regression tests for the hash-index lifetime bug and null-key
// anti/semijoin agreement.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/batch_operators.h"
#include "exec/build.h"
#include "optimizer/explain.h"
#include "testing/datagen.h"
#include "testing/graphgen.h"

namespace fro {
namespace {

// Counter equality ignoring wall-clock fields (the evaluator keeps none).
void ExpectCountersEq(const ExecStats& exec, const ExecStats& eval,
                      const std::string& context) {
  EXPECT_EQ(exec.left_reads, eval.left_reads) << context;
  EXPECT_EQ(exec.right_reads, eval.right_reads) << context;
  EXPECT_EQ(exec.emitted, eval.emitted) << context;
  EXPECT_EQ(exec.probes, eval.probes) << context;
  EXPECT_EQ(exec.predicate_evals, eval.predicate_evals) << context;
}

// Runs `expr` through the evaluator and the executor and checks results
// and counters.
void ExpectExecutorMatchesEval(const ExprPtr& expr, const Database& db,
                               JoinAlgo algo) {
  EvalOptions options;
  options.algo = algo;
  EvalStats eval_stats;
  Relation reference = Eval(expr, db, options, &eval_stats);

  BatchIteratorPtr root = BuildBatchIterator(expr, db, algo);
  Relation piped = DrainBatches(root.get());
  EXPECT_TRUE(BagEquals(reference, piped)) << expr->ToString();

  ExecStats exec_totals = CollectPipelineStats(root.get());
  ExpectCountersEq(exec_totals, eval_stats.totals, expr->ToString());
}

class ExecStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c", "d"});
    a_ = db_.Attr("R", "a");
    b_ = db_.Attr("R", "b");
    c_ = db_.Attr("S", "c");
    d_ = db_.Attr("S", "d");
    db_.AddRow(r_, {Value::Int(1), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(20)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(21)});
    db_.AddRow(r_, {Value::Null(), Value::Int(30)});
    db_.AddRow(s_, {Value::Int(1), Value::Int(100)});
    db_.AddRow(s_, {Value::Int(1), Value::Int(101)});
    db_.AddRow(s_, {Value::Int(3), Value::Int(102)});
    db_.AddRow(s_, {Value::Null(), Value::Int(103)});
  }

  ExprPtr LeafR() const { return Expr::Leaf(r_, db_); }
  ExprPtr LeafS() const { return Expr::Leaf(s_, db_); }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_, d_;
};

// Every operator kind, both join strategies: the root iterator's
// counters must equal the evaluator's kernel counters for the same
// single-operator expression.
TEST_F(ExecStatsTest, AgreementMatrixOverAllOperatorKinds) {
  std::vector<ExprPtr> exprs = {
      Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
      Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                      /*preserves_left=*/true),
      Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                      /*preserves_left=*/false),
      Expr::Antijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
      Expr::Antijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/false),
      Expr::Semijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
      Expr::Semijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/false),
      Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_), AttrSet::Of({a_, b_})),
      Expr::Restrict(LeafR(), CmpLit(CmpOp::kGe, b_, Value::Int(20))),
      Expr::Project(LeafR(), {a_}, /*dedup=*/false),
      Expr::Project(LeafR(), {a_}, /*dedup=*/true),
      Expr::Union(LeafR(), LeafS()),
      // A non-equi predicate forces the nested-loop path even under kAuto.
      Expr::Join(LeafR(), LeafS(), CmpCols(CmpOp::kLt, a_, c_)),
  };
  for (const ExprPtr& expr : exprs) {
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectExecutorMatchesEval(expr, db_, algo);
    }
  }
}

// Multi-operator pipeline: summing counters over all non-scan iterators
// must match the evaluator's tree-wide totals.
TEST_F(ExecStatsTest, CompositePipelineTotalsAgree) {
  ExprPtr expr = Expr::Project(
      Expr::Restrict(Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
                     CmpLit(CmpOp::kGe, d_, Value::Int(100))),
      {a_, d_}, /*dedup=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectExecutorMatchesEval(expr, db_, algo);
  }
}

TEST(ExecStatsPropertyTest, CountersAgreeOnRandomQueries) {
  Rng rng(4207);
  for (int trial = 0; trial < 30; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(3));
    options.rows.null_prob = 0.2;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    ASSERT_NE(tree, nullptr);
    ExpectExecutorMatchesEval(tree, *q.db, JoinAlgo::kAuto);
    ExpectExecutorMatchesEval(tree, *q.db, JoinAlgo::kNestedLoop);
  }
}

// Per-operator stats: the root join of a two-join plan must report its own
// counters (not tree totals), and Scan nodes report only emitted rows.
TEST_F(ExecStatsTest, PerOperatorAttribution) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  Relation out = DrainBatches(root.get());
  EXPECT_EQ(root->stats().emitted, out.NumRows());
  // Hash join: one probe per left row, including the null-key row.
  EXPECT_EQ(root->stats().probes, 4u);
  EXPECT_EQ(root->stats().left_reads, 4u);
  ASSERT_EQ(root->children().size(), 2u);
  for (BatchIterator* child : root->children()) {
    EXPECT_STREQ(child->physical_name(), "Scan");
    EXPECT_EQ(child->stats().left_reads, 0u);
    EXPECT_EQ(child->stats().probes, 0u);
    EXPECT_GT(child->stats().emitted, 0u);
  }
}

// --- Example 1 through the executor ------------------------------------

// The paper's Example 1 at scale n: the naive order R1 -> (R2 -> R3)
// retrieves 2n+1 base tuples while the reordered (R1 -> R2) -> R3
// retrieves 3, both for the same single-row result. (The paper uses
// n = 10^7; the arithmetic 2n+1 vs. 3 is what matters, so the test
// sweeps moderate n.)
TEST(ExecStatsExample1Test, PipelinedBaseRetrievalAccounting) {
  for (int n : {10, 50, 500}) {
    std::unique_ptr<Database> db = MakeExample1Database(n);
    RelId r1 = db->Rel("R1");
    RelId r2 = db->Rel("R2");
    RelId r3 = db->Rel("R3");
    AttrId r1k = db->Attr("R1", "k");
    AttrId r2k = db->Attr("R2", "k");
    AttrId r2fk = db->Attr("R2", "fk");
    AttrId r3k = db->Attr("R3", "k");

    ExprPtr naive = Expr::OuterJoin(
        Expr::Leaf(r1, *db),
        Expr::OuterJoin(Expr::Leaf(r2, *db), Expr::Leaf(r3, *db),
                        EqCols(r2fk, r3k), /*preserves_left=*/true),
        EqCols(r1k, r2k), /*preserves_left=*/true);
    ExprPtr reordered = Expr::OuterJoin(
        Expr::OuterJoin(Expr::Leaf(r1, *db), Expr::Leaf(r2, *db),
                        EqCols(r1k, r2k), /*preserves_left=*/true),
        Expr::Leaf(r3, *db), EqCols(r2fk, r3k), /*preserves_left=*/true);

    ExplainAnalyzeResult naive_run = ExplainAnalyze(naive, *db);
    ExplainAnalyzeResult reordered_run = ExplainAnalyze(reordered, *db);

    EXPECT_TRUE(BagEquals(naive_run.result, reordered_run.result)) << n;
    EXPECT_EQ(naive_run.result.NumRows(), 1u) << n;
    EXPECT_EQ(naive_run.base_tuples_read, 2u * static_cast<uint64_t>(n) + 1u)
        << n;
    EXPECT_EQ(reordered_run.base_tuples_read, 3u) << n;

    // The executor's accounting must equal the evaluator's.
    for (const ExprPtr& expr : {naive, reordered}) {
      EvalStats eval_stats;
      Eval(expr, *db, EvalOptions(), &eval_stats);
      ExplainAnalyzeResult run = ExplainAnalyze(expr, *db);
      ExpectCountersEq(run.totals, eval_stats.totals, expr->ToString());
      EXPECT_EQ(run.base_tuples_read, eval_stats.base_tuples_read);
    }
  }
}

// --- Regression: hash-index lifetime (satellite 1) --------------------

// The hash join's Open used to build its HashIndex over a local
// normalized copy of the build side that was destroyed when Open
// returned. With keys that actually require normalization (ints probed
// by doubles) the index must keep a live normalized relation to hash
// probe keys consistently.
TEST(HashIndexLifetimeTest, NormalizedBuildSideSurvivesOpen) {
  Database db;
  RelId r = *db.AddRelation("R", {"x"});
  RelId s = *db.AddRelation("S", {"y"});
  AttrId x = db.Attr("R", "x");
  AttrId y = db.Attr("S", "y");
  // Probe side: doubles. Build side: ints. SQL equality makes 1 == 1.0,
  // so the index must be built over key-normalized build rows.
  db.AddRow(r, {Value::Double(1.0)});
  db.AddRow(r, {Value::Double(2.5)});
  db.AddRow(r, {Value::Double(3.0)});
  db.AddRow(s, {Value::Int(1)});
  db.AddRow(s, {Value::Int(2)});
  db.AddRow(s, {Value::Int(3)});

  auto make_join = [&] {
    return std::make_unique<BatchHashJoinIterator>(
        std::make_unique<BatchScanIterator>(&db.relation(r)),
        std::make_unique<BatchScanIterator>(&db.relation(s)), EqCols(x, y),
        JoinMode::kInner, std::vector<AttrId>{x}, std::vector<AttrId>{y});
  };

  auto join = make_join();
  Relation out = DrainBatches(join.get());
  EXPECT_EQ(out.NumRows(), 2u);  // 1.0 == 1 and 3.0 == 3

  // Output rows must carry the build side's *original* values, not the
  // normalized copies used for hashing.
  int y_pos = out.scheme().IndexOf(y);
  ASSERT_GE(y_pos, 0);
  for (size_t i = 0; i < out.NumRows(); ++i) {
    EXPECT_EQ(out.row(i).value(static_cast<size_t>(y_pos)).kind(),
              Value::Kind::kInt)
        << "row " << i;
  }

  // Rescan exercises a second build over the member relation.
  auto again = make_join();
  Relation first = DrainBatches(again.get());
  Relation second = DrainBatches(again.get());
  EXPECT_TRUE(BagEquals(first, second));

  // And through the full stack: evaluator and executor agree.
  ExprPtr expr = Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db),
                            EqCols(x, y));
  ExpectExecutorMatchesEval(expr, db, JoinAlgo::kAuto);
}

// --- Null join keys on both sides of anti/semijoin (satellite 4) ------

class NullKeyAntiSemiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a"});
    s_ = *db_.AddRelation("S", {"c"});
    a_ = db_.Attr("R", "a");
    c_ = db_.Attr("S", "c");
    // Null keys on the probe side...
    db_.AddRow(r_, {Value::Int(1)});
    db_.AddRow(r_, {Value::Null()});
    db_.AddRow(r_, {Value::Int(2)});
    db_.AddRow(r_, {Value::Null()});
    // ...and on the build side.
    db_.AddRow(s_, {Value::Int(1)});
    db_.AddRow(s_, {Value::Null()});
    db_.AddRow(s_, {Value::Null()});
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, c_;
};

TEST_F(NullKeyAntiSemiTest, AntijoinKeepsNullKeyRows) {
  // NULL = anything is unknown, so null-key R rows survive the antijoin.
  for (bool keeps_left : {true, false}) {
    ExprPtr expr =
        Expr::Antijoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                       EqCols(a_, c_), keeps_left);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectExecutorMatchesEval(expr, db_, algo);
    }
    if (keeps_left) {
      Relation out = ExecuteBatched(expr, db_, JoinAlgo::kAuto);
      // {null, 2, null} survive; 1 is matched.
      EXPECT_EQ(out.NumRows(), 3u);
    }
  }
}

TEST_F(NullKeyAntiSemiTest, SemijoinDropsNullKeyRows) {
  for (bool keeps_left : {true, false}) {
    ExprPtr expr =
        Expr::Semijoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                       EqCols(a_, c_), keeps_left);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectExecutorMatchesEval(expr, db_, algo);
    }
    if (keeps_left) {
      Relation out = ExecuteBatched(expr, db_, JoinAlgo::kAuto);
      EXPECT_EQ(out.NumRows(), 1u);  // only a=1 has a match
    }
  }
}

// --- Union padding with partially-overlapping schemes (satellite 4) ---

TEST_F(ExecStatsTest, UnionPadsPartiallyOverlappingSchemes) {
  // Left scheme {a, b}, right scheme {b} (shared attribute): the union
  // scheme is {a, b}; right rows must be padded with null for `a` while
  // keeping their `b` values in the right column.
  ExprPtr expr =
      Expr::Union(LeafR(), Expr::Project(LeafR(), {b_}, /*dedup=*/false));
  ExpectExecutorMatchesEval(expr, db_, JoinAlgo::kAuto);

  Relation out = ExecuteBatched(expr, db_, JoinAlgo::kAuto);
  EXPECT_EQ(out.NumRows(), 8u);
  ASSERT_EQ(out.scheme().size(), 2u);
  size_t a_pos = static_cast<size_t>(out.scheme().IndexOf(a_));
  size_t b_pos = static_cast<size_t>(out.scheme().IndexOf(b_));
  size_t padded = 0;
  for (size_t i = 0; i < out.NumRows(); ++i) {
    EXPECT_FALSE(out.row(i).value(b_pos).is_null()) << "row " << i;
    if (out.row(i).value(a_pos).is_null()) ++padded;
  }
  // One original null `a` from R plus four padded right-side rows.
  EXPECT_EQ(padded, 5u);
}

// --- Blocking iterators thread stats through the kernels --------------

TEST_F(ExecStatsTest, GojIteratorReportsKernelCounters) {
  ExprPtr goj = Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_),
                          AttrSet::Of({a_, b_}));
  BatchIteratorPtr root = BuildBatchIterator(goj, db_, JoinAlgo::kAuto);
  Relation out = DrainBatches(root.get());
  EXPECT_EQ(root->stats().emitted, out.NumRows());
  // The kernel read both inputs; the stats are not dropped.
  EXPECT_GT(root->stats().left_reads, 0u);
  EXPECT_GT(root->stats().right_reads, 0u);
}

// Timing is off by default and populated once enabled.
TEST_F(ExecStatsTest, TimingOnlyWhenEnabled) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  {
    BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    DrainBatches(root.get());
    EXPECT_EQ(root->stats().open_ns, 0u);
    EXPECT_EQ(root->stats().next_ns, 0u);
  }
  {
    BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    root->EnableTiming();
    DrainBatches(root.get());
    EXPECT_GT(root->stats().open_ns + root->stats().next_ns, 0u);
  }
}

}  // namespace
}  // namespace fro
