#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "testing/datagen.h"

namespace fro {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = *db_.AddRelation("X", {"a"});
    y_ = *db_.AddRelation("Y", {"b"});
    a_ = db_.Attr("X", "a");
    b_ = db_.Attr("Y", "b");
    db_.AddRow(x_, {Value::Int(1)});
    db_.AddRow(x_, {Value::Int(2)});
    db_.AddRow(y_, {Value::Int(1)});
    db_.AddRow(y_, {Value::Int(3)});
  }

  Database db_;
  RelId x_, y_;
  AttrId a_, b_;
};

TEST_F(EvalTest, LeafReturnsRelation) {
  Relation out = Eval(Expr::Leaf(x_, db_), db_);
  EXPECT_TRUE(BagEquals(out, db_.relation(x_)));
}

TEST_F(EvalTest, LeafSharesTheBaseRelationsRows) {
  // A leaf reads its base relation in place: the result shares the row
  // storage instead of copying it.
  Relation out = Eval(Expr::Leaf(x_, db_), db_);
  EXPECT_EQ(out.rows().data(), db_.relation(x_).rows().data());
  // A write through the result copies first; the base keeps its rows.
  out.AddRow({Value::Int(7)});
  EXPECT_NE(out.rows().data(), db_.relation(x_).rows().data());
  EXPECT_EQ(db_.relation(x_).NumRows(), 2u);
  EXPECT_EQ(out.NumRows(), 3u);
}

TEST_F(EvalTest, JoinAndOuterJoin) {
  ExprPtr x = Expr::Leaf(x_, db_);
  ExprPtr y = Expr::Leaf(y_, db_);
  EXPECT_EQ(Eval(Expr::Join(x, y, EqCols(a_, b_)), db_).NumRows(), 1u);
  EXPECT_EQ(Eval(Expr::OuterJoin(x, y, EqCols(a_, b_)), db_).NumRows(), 2u);
}

TEST_F(EvalTest, SymmetricFormEvaluatesIdentically) {
  // X -> Y equals Y <- X (the paper's symmetric form).
  ExprPtr forward = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                                    EqCols(a_, b_), /*preserves_left=*/true);
  ExprPtr backward = Expr::OuterJoin(Expr::Leaf(y_, db_), Expr::Leaf(x_, db_),
                                     EqCols(a_, b_),
                                     /*preserves_left=*/false);
  EXPECT_TRUE(BagEquals(Eval(forward, db_), Eval(backward, db_)));
}

TEST_F(EvalTest, SymmetricAntijoinAndSemijoin) {
  ExprPtr aj_fwd = Expr::Antijoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                                  EqCols(a_, b_), true);
  ExprPtr aj_bwd = Expr::Antijoin(Expr::Leaf(y_, db_), Expr::Leaf(x_, db_),
                                  EqCols(a_, b_), false);
  EXPECT_TRUE(BagEquals(Eval(aj_fwd, db_), Eval(aj_bwd, db_)));
  ExprPtr sj_fwd = Expr::Semijoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                                  EqCols(a_, b_), true);
  ExprPtr sj_bwd = Expr::Semijoin(Expr::Leaf(y_, db_), Expr::Leaf(x_, db_),
                                  EqCols(a_, b_), false);
  EXPECT_TRUE(BagEquals(Eval(sj_fwd, db_), Eval(sj_bwd, db_)));
}

TEST_F(EvalTest, RestrictProjectUnion) {
  ExprPtr x = Expr::Leaf(x_, db_);
  Relation restricted =
      Eval(Expr::Restrict(x, CmpLit(CmpOp::kGt, a_, Value::Int(1))), db_);
  EXPECT_EQ(restricted.NumRows(), 1u);
  Relation unioned =
      Eval(Expr::Union(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_)), db_);
  EXPECT_EQ(unioned.NumRows(), 4u);
  EXPECT_EQ(unioned.scheme().size(), 2u);  // padded to X u Y
  Relation projected = Eval(Expr::Project(x, {a_}, false), db_);
  EXPECT_EQ(projected.NumRows(), 2u);
}

TEST_F(EvalTest, KernelChoiceDoesNotChangeResults) {
  ExprPtr q = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                              EqCols(a_, b_));
  EvalOptions nl;
  nl.algo = JoinAlgo::kNestedLoop;
  EvalOptions hash;
  hash.algo = JoinAlgo::kHash;
  EXPECT_TRUE(BagEquals(Eval(q, db_, nl), Eval(q, db_, hash)));
}

// Example 1 of the paper, instrumented: the naive order retrieves 2N+1
// base tuples, the reordered plan retrieves 3, independent of N.
TEST(Example1Test, BaseRetrievalAccounting) {
  for (int n : {10, 50, 200}) {
    auto db = MakeExample1Database(n);
    AttrId r1k = db->Attr("R1", "k");
    AttrId r2k = db->Attr("R2", "k");
    AttrId r2fk = db->Attr("R2", "fk");
    AttrId r3k = db->Attr("R3", "k");
    ExprPtr r1 = Expr::Leaf(db->Rel("R1"), *db);
    ExprPtr r2 = Expr::Leaf(db->Rel("R2"), *db);
    ExprPtr r3 = Expr::Leaf(db->Rel("R3"), *db);

    // Naive: R1 - (R2 -> R3).
    ExprPtr naive = Expr::Join(
        r1, Expr::OuterJoin(r2, r3, EqCols(r2fk, r3k)), EqCols(r1k, r2k));
    // Reordered: (R1 - R2) -> R3.
    ExprPtr reordered = Expr::OuterJoin(
        Expr::Join(r1, r2, EqCols(r1k, r2k)), r3, EqCols(r2fk, r3k));

    EvalStats naive_stats, reordered_stats;
    Relation naive_out = Eval(naive, *db, EvalOptions(), &naive_stats);
    Relation reordered_out =
        Eval(reordered, *db, EvalOptions(), &reordered_stats);

    // Same result (Example 1's equivalence, proved by identity 11).
    EXPECT_TRUE(BagEquals(naive_out, reordered_out));
    EXPECT_EQ(naive_out.NumRows(), 1u);

    // The paper's arithmetic: 2N+1 vs 3.
    EXPECT_EQ(naive_stats.base_tuples_read,
              static_cast<uint64_t>(2 * n + 1));
    EXPECT_EQ(reordered_stats.base_tuples_read, 3u);
  }
}

TEST(EvalStatsTest, IntermediateTuplesCounted) {
  auto db = MakeExample1Database(10);
  AttrId r2fk = db->Attr("R2", "fk");
  AttrId r3k = db->Attr("R3", "k");
  ExprPtr q = Expr::OuterJoin(Expr::Leaf(db->Rel("R2"), *db),
                              Expr::Leaf(db->Rel("R3"), *db),
                              EqCols(r2fk, r3k));
  // Root results are not "intermediate".
  EvalStats stats;
  Eval(q, *db, EvalOptions(), &stats);
  EXPECT_EQ(stats.intermediate_tuples, 0u);
  // Wrap in a restrict: now the outerjoin result is intermediate.
  EvalStats stats2;
  Eval(Expr::Restrict(q, CmpLit(CmpOp::kGe, r2fk, Value::Int(0))), *db,
       EvalOptions(), &stats2);
  EXPECT_EQ(stats2.intermediate_tuples, 10u);
}

}  // namespace
}  // namespace fro
