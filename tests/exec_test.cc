// Executor tests: per-operator behaviour, rescans, and the
// cross-validation property: the batch executor agrees with the
// materializing evaluator on every expression.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/batch_operators.h"
#include "exec/build.h"
#include "testing/datagen.h"
#include "testing/graphgen.h"

namespace fro {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c"});
    a_ = db_.Attr("R", "a");
    b_ = db_.Attr("R", "b");
    c_ = db_.Attr("S", "c");
    db_.AddRow(r_, {Value::Int(1), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(20)});
    db_.AddRow(r_, {Value::Null(), Value::Int(30)});
    db_.AddRow(s_, {Value::Int(1)});
    db_.AddRow(s_, {Value::Int(1)});
    db_.AddRow(s_, {Value::Int(3)});
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_;
};

TEST_F(ExecTest, ScanStreamsAllRows) {
  BatchScanIterator scan(&db_.relation(r_));
  Relation out = DrainBatches(&scan);
  EXPECT_TRUE(BagEquals(out, db_.relation(r_)));
  EXPECT_EQ(scan.produced(), 3u);
}

TEST_F(ExecTest, ScanRescans) {
  BatchScanIterator scan(&db_.relation(r_));
  Relation first = DrainBatches(&scan);
  Relation second = DrainBatches(&scan);
  EXPECT_TRUE(BagEquals(first, second));
}

TEST_F(ExecTest, FilterDropsNonMatching) {
  auto filter = std::make_unique<BatchFilterIterator>(
      std::make_unique<BatchScanIterator>(&db_.relation(r_)),
      CmpLit(CmpOp::kGe, b_, Value::Int(20)));
  EXPECT_EQ(DrainBatches(filter.get()).NumRows(), 2u);
}

TEST_F(ExecTest, ProjectWithAndWithoutDedup) {
  auto bag = std::make_unique<BatchProjectIterator>(
      std::make_unique<BatchScanIterator>(&db_.relation(s_)),
      std::vector<AttrId>{c_}, /*dedup=*/false);
  EXPECT_EQ(DrainBatches(bag.get()).NumRows(), 3u);
  auto set = std::make_unique<BatchProjectIterator>(
      std::make_unique<BatchScanIterator>(&db_.relation(s_)),
      std::vector<AttrId>{c_}, /*dedup=*/true);
  EXPECT_EQ(DrainBatches(set.get()).NumRows(), 2u);
}

TEST_F(ExecTest, UnionPads) {
  auto u = std::make_unique<BatchUnionIterator>(
      std::make_unique<BatchScanIterator>(&db_.relation(r_)),
      std::make_unique<BatchScanIterator>(&db_.relation(s_)));
  Relation out = DrainBatches(u.get());
  EXPECT_EQ(out.NumRows(), 6u);
  EXPECT_EQ(out.scheme().size(), 3u);
}

TEST_F(ExecTest, JoinModesNestedLoop) {
  auto make = [&](JoinMode mode) {
    auto it = std::make_unique<BatchNestedLoopJoinIterator>(
        std::make_unique<BatchScanIterator>(&db_.relation(r_)),
        std::make_unique<BatchScanIterator>(&db_.relation(s_)), EqCols(a_, c_),
        mode);
    return DrainBatches(it.get());
  };
  EXPECT_EQ(make(JoinMode::kInner).NumRows(), 2u);      // a=1 matches twice
  EXPECT_EQ(make(JoinMode::kLeftOuter).NumRows(), 4u);  // + 2 padded
  EXPECT_EQ(make(JoinMode::kAnti).NumRows(), 2u);       // a=2, a=null
  EXPECT_EQ(make(JoinMode::kSemi).NumRows(), 1u);       // a=1 once
}

TEST_F(ExecTest, JoinModesHash) {
  auto make = [&](JoinMode mode) {
    auto it = std::make_unique<BatchHashJoinIterator>(
        std::make_unique<BatchScanIterator>(&db_.relation(r_)),
        std::make_unique<BatchScanIterator>(&db_.relation(s_)), EqCols(a_, c_),
        mode, std::vector<AttrId>{a_}, std::vector<AttrId>{c_});
    return DrainBatches(it.get());
  };
  EXPECT_EQ(make(JoinMode::kInner).NumRows(), 2u);
  EXPECT_EQ(make(JoinMode::kLeftOuter).NumRows(), 4u);
  EXPECT_EQ(make(JoinMode::kAnti).NumRows(), 2u);
  EXPECT_EQ(make(JoinMode::kSemi).NumRows(), 1u);
}

TEST_F(ExecTest, HashAndNestedLoopAgree) {
  for (JoinMode mode : {JoinMode::kInner, JoinMode::kLeftOuter,
                        JoinMode::kAnti, JoinMode::kSemi}) {
    auto nl = std::make_unique<BatchNestedLoopJoinIterator>(
        std::make_unique<BatchScanIterator>(&db_.relation(r_)),
        std::make_unique<BatchScanIterator>(&db_.relation(s_)), EqCols(a_, c_),
        mode);
    auto hash = std::make_unique<BatchHashJoinIterator>(
        std::make_unique<BatchScanIterator>(&db_.relation(r_)),
        std::make_unique<BatchScanIterator>(&db_.relation(s_)), EqCols(a_, c_),
        mode, std::vector<AttrId>{a_}, std::vector<AttrId>{c_});
    EXPECT_TRUE(BagEquals(DrainBatches(nl.get()), DrainBatches(hash.get())));
  }
}

TEST_F(ExecTest, BuildBatchIteratorMatchesEvalOnHandwrittenQuery) {
  ExprPtr q = Expr::Restrict(
      Expr::OuterJoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                      EqCols(a_, c_)),
      CmpLit(CmpOp::kGe, b_, Value::Int(20)));
  EXPECT_TRUE(BagEquals(ExecuteBatched(q, db_), Eval(q, db_)));
}

TEST_F(ExecTest, SymmetricFormsExecute) {
  ExprPtr backward = Expr::OuterJoin(Expr::Leaf(s_, db_),
                                     Expr::Leaf(r_, db_), EqCols(a_, c_),
                                     /*preserves_left=*/false);
  ExprPtr forward = Expr::OuterJoin(Expr::Leaf(r_, db_),
                                    Expr::Leaf(s_, db_), EqCols(a_, c_));
  EXPECT_TRUE(BagEquals(ExecuteBatched(backward, db_),
                        ExecuteBatched(forward, db_)));
}

TEST_F(ExecTest, GojIteratorMatchesKernel) {
  ExprPtr goj = Expr::Goj(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                          EqCols(a_, c_), AttrSet::Of({a_}));
  EXPECT_TRUE(BagEquals(ExecuteBatched(goj, db_), Eval(goj, db_)));
}

TEST_F(ExecTest, EmptyInputs) {
  Database db;
  RelId e1 = *db.AddRelation("E1", {"x"});
  RelId e2 = *db.AddRelation("E2", {"y"});
  ExprPtr q = Expr::OuterJoin(Expr::Leaf(e1, db), Expr::Leaf(e2, db),
                              EqCols(db.Attr("E1", "x"), db.Attr("E2", "y")));
  EXPECT_EQ(ExecuteBatched(q, db).NumRows(), 0u);
}

// The flagship cross-validation: batch execution agrees with the
// reference evaluator on random implementing trees, under both physical
// strategies.
TEST(ExecPropertyTest, BatchedAgreesWithEvalOnRandomQueries) {
  Rng rng(1801);
  for (int trial = 0; trial < 40; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(4));
    options.rows.null_prob = 0.2;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    ASSERT_NE(tree, nullptr);
    Relation reference = Eval(tree, *q.db);
    EXPECT_TRUE(BagEquals(reference,
                          ExecuteBatched(tree, *q.db, JoinAlgo::kAuto)))
        << tree->ToString();
    EXPECT_TRUE(BagEquals(
        reference, ExecuteBatched(tree, *q.db, JoinAlgo::kNestedLoop)))
        << tree->ToString();
  }
}

// Pipelines are restartable: draining twice gives the same bag.
TEST(ExecPropertyTest, PipelinesRescanCleanly) {
  Rng rng(1802);
  RandomQueryOptions options;
  options.num_relations = 4;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  BatchIteratorPtr root = BuildBatchIterator(tree, *q.db);
  Relation first = DrainBatches(root.get());
  Relation second = DrainBatches(root.get());
  EXPECT_TRUE(BagEquals(first, second));
}

// Early termination: closing a pipeline mid-stream is safe and a
// subsequent reopen starts fresh.
TEST(ExecPropertyTest, EarlyCloseAndReopen) {
  Rng rng(1803);
  RandomQueryOptions options;
  options.num_relations = 4;
  options.rows.rows_min = 3;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  BatchIteratorPtr root = BuildBatchIterator(tree, *q.db, JoinAlgo::kAuto,
                                             /*batch_capacity=*/1);
  root->Open();
  TupleBatch batch(1);
  root->NextBatch(&batch);  // consume at most one row
  root->Close();
  Relation full = DrainBatches(root.get());
  EXPECT_TRUE(BagEquals(full, Eval(tree, *q.db)));
}

}  // namespace
}  // namespace fro
