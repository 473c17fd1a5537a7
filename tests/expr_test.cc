#include <gtest/gtest.h>

#include "algebra/expr.h"
#include "relational/database.h"

namespace fro {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = *db_.AddRelation("X", {"a"});
    y_ = *db_.AddRelation("Y", {"b"});
    z_ = *db_.AddRelation("Z", {"c"});
    a_ = db_.Attr("X", "a");
    b_ = db_.Attr("Y", "b");
    c_ = db_.Attr("Z", "c");
  }

  Database db_;
  RelId x_, y_, z_;
  AttrId a_, b_, c_;
};

TEST_F(ExprTest, LeafProperties) {
  ExprPtr leaf = Expr::Leaf(x_, db_);
  EXPECT_TRUE(leaf->is_leaf());
  EXPECT_EQ(leaf->rel(), x_);
  EXPECT_EQ(leaf->rel_mask(), 1ULL << x_);
  EXPECT_EQ(leaf->num_leaves(), 1);
  EXPECT_TRUE(leaf->attrs().Contains(a_));
}

TEST_F(ExprTest, JoinAggregatesMasksAndAttrs) {
  ExprPtr j = Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                         EqCols(a_, b_));
  EXPECT_EQ(j->kind(), OpKind::kJoin);
  EXPECT_EQ(j->rel_mask(), (1ULL << x_) | (1ULL << y_));
  EXPECT_EQ(j->num_leaves(), 2);
  EXPECT_TRUE(j->attrs().Contains(a_));
  EXPECT_TRUE(j->attrs().Contains(b_));
  EXPECT_TRUE(j->is_join_like());
}

TEST_F(ExprTest, SharedLeavesDie) {
  ExprPtr leaf = Expr::Leaf(x_, db_);
  EXPECT_DEATH(Expr::Join(leaf, Expr::Leaf(x_, db_), EqCols(a_, a_)),
               "share ground relations");
}

TEST_F(ExprTest, AntijoinKeepsOneSideAttrs) {
  ExprPtr keeps_left = Expr::Antijoin(Expr::Leaf(x_, db_),
                                      Expr::Leaf(y_, db_), EqCols(a_, b_),
                                      /*keeps_left=*/true);
  EXPECT_TRUE(keeps_left->attrs().Contains(a_));
  EXPECT_FALSE(keeps_left->attrs().Contains(b_));
  ExprPtr keeps_right = Expr::Antijoin(Expr::Leaf(x_, db_),
                                       Expr::Leaf(y_, db_), EqCols(a_, b_),
                                       /*keeps_left=*/false);
  EXPECT_FALSE(keeps_right->attrs().Contains(a_));
  EXPECT_TRUE(keeps_right->attrs().Contains(b_));
}

TEST_F(ExprTest, ToStringInfix) {
  ExprPtr q = Expr::OuterJoin(
      Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_), EqCols(a_, b_)),
      Expr::Leaf(z_, db_), EqCols(b_, c_));
  EXPECT_EQ(q->ToString(&db_.catalog()), "((X - Y) -> Z)");
  ExprPtr flipped = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                                    EqCols(a_, b_), /*preserves_left=*/false);
  EXPECT_EQ(flipped->ToString(&db_.catalog()), "(X <- Y)");
}

TEST_F(ExprTest, ToStringWithPreds) {
  ExprPtr q = Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                         EqCols(a_, b_));
  EXPECT_EQ(q->ToString(&db_.catalog(), /*with_preds=*/true),
            "(X -[X.a=Y.b] Y)");
}

TEST_F(ExprTest, FingerprintDistinguishesOrientationAndShape) {
  ExprPtr xy = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                               EqCols(a_, b_), true);
  ExprPtr yx = Expr::OuterJoin(Expr::Leaf(y_, db_), Expr::Leaf(x_, db_),
                               EqCols(a_, b_), false);
  EXPECT_NE(xy->Fingerprint(), yx->Fingerprint());
  EXPECT_FALSE(ExprEquals(xy, yx));
  // Structurally identical trees built separately are equal.
  ExprPtr xy2 = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                                EqCols(a_, b_), true);
  EXPECT_TRUE(ExprEquals(xy, xy2));
}

TEST_F(ExprTest, GojSubsetValidation) {
  ExprPtr x = Expr::Leaf(x_, db_);
  ExprPtr y = Expr::Leaf(y_, db_);
  ExprPtr goj = Expr::Goj(x, y, EqCols(a_, b_), AttrSet::Of({a_}));
  EXPECT_EQ(goj->kind(), OpKind::kGoj);
  EXPECT_EQ(goj->goj_subset().ids(), (std::vector<AttrId>{a_}));
  EXPECT_DEATH(Expr::Goj(x, y, EqCols(a_, b_), AttrSet::Of({b_})),
               "left operand");
}

TEST_F(ExprTest, RestrictProjectUnion) {
  ExprPtr x = Expr::Leaf(x_, db_);
  ExprPtr r = Expr::Restrict(x, CmpLit(CmpOp::kGt, a_, Value::Int(0)));
  EXPECT_EQ(r->kind(), OpKind::kRestrict);
  EXPECT_EQ(r->attrs(), x->attrs());
  ExprPtr p = Expr::Project(r, {a_}, true);
  EXPECT_EQ(p->kind(), OpKind::kProject);
  ExprPtr u = Expr::Union(Expr::Leaf(y_, db_), Expr::Leaf(z_, db_));
  EXPECT_TRUE(u->attrs().Contains(b_));
  EXPECT_TRUE(u->attrs().Contains(c_));
}

TEST_F(ExprTest, OpSymbols) {
  ExprPtr x = Expr::Leaf(x_, db_);
  ExprPtr y = Expr::Leaf(y_, db_);
  EXPECT_EQ(OpSymbol(*Expr::Join(x, y, EqCols(a_, b_))), "-");
  EXPECT_EQ(OpSymbol(*Expr::OuterJoin(x, y, EqCols(a_, b_), true)), "->");
  EXPECT_EQ(OpSymbol(*Expr::OuterJoin(x, y, EqCols(a_, b_), false)), "<-");
  EXPECT_EQ(OpSymbol(*Expr::Antijoin(x, y, EqCols(a_, b_), true)), "|>");
  EXPECT_EQ(OpSymbol(*Expr::Antijoin(x, y, EqCols(a_, b_), false)), "<|");
  EXPECT_EQ(OpSymbol(*Expr::Semijoin(x, y, EqCols(a_, b_), true)), ">-");
}

TEST_F(ExprTest, InterningSharesStructurallyEqualNodes) {
  // Structurally-equal construction returns the same node: leaves...
  ExprPtr l1 = Expr::Leaf(x_, db_);
  ExprPtr l2 = Expr::Leaf(x_, db_);
  EXPECT_EQ(l1.get(), l2.get());
  // ...and whole trees built from independently-created parts.
  ExprPtr j1 = Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                          EqCols(a_, b_));
  ExprPtr j2 = Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                          EqCols(a_, b_));
  EXPECT_EQ(j1.get(), j2.get());
  EXPECT_EQ(j1->hash(), j2->hash());
  // Different structure means a different node (and, with overwhelming
  // probability, a different hash).
  ExprPtr other = Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(z_, db_),
                             EqCols(a_, c_));
  EXPECT_NE(j1.get(), other.get());
  EXPECT_NE(j1->hash(), other->hash());
}

TEST_F(ExprTest, InternStatsCountHitsAndMisses) {
  ExprInternStats before = GetExprInternStats();
  ExprPtr j1 = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                               EqCols(a_, b_), /*preserves_left=*/true);
  ExprInternStats mid = GetExprInternStats();
  ExprPtr j2 = Expr::OuterJoin(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                               EqCols(a_, b_), /*preserves_left=*/true);
  ExprInternStats after = GetExprInternStats();
  EXPECT_EQ(j1.get(), j2.get());
  EXPECT_GT(mid.misses, before.misses);   // first build interns new nodes
  EXPECT_GT(after.hits, mid.hits);        // second build reuses them
}

TEST_F(ExprTest, InterningStaysBoundedAcrossRebuilds) {
  // Re-planning rebuilds the same shapes after the previous nodes died.
  // The arena must reuse or sweep their expired entries rather than add
  // a twin per rebuild.
  auto build = [&]() {
    ExprPtr core = Expr::OuterJoin(
        Expr::Join(Expr::Leaf(x_, db_), Expr::Leaf(y_, db_),
                   EqCols(a_, b_)),
        Expr::Leaf(z_, db_), EqCols(b_, c_), /*preserves_left=*/true);
    return Expr::Project(
        Expr::Restrict(core, CmpLit(CmpOp::kGt, a_, Value::Int(3))),
        {a_, c_}, /*dedup=*/false);
  };
  build();  // leaves one expired entry per node behind
  const ExprInternStats before = GetExprInternStats();
  for (int i = 0; i < 10000; ++i) {
    ExprPtr first = build();
    ExprPtr second = build();
    ASSERT_EQ(first.get(), second.get());  // live equal nodes are shared
    ASSERT_EQ(first->left().get(), second->left().get());
  }
  const ExprInternStats after = GetExprInternStats();
  EXPECT_LE(after.slots, before.slots + 8);
  EXPECT_GE(after.slots, after.live);
}

TEST_F(ExprTest, HashDistinguishesOperatorVariants) {
  ExprPtr x = Expr::Leaf(x_, db_);
  ExprPtr y = Expr::Leaf(y_, db_);
  PredicatePtr p = EqCols(a_, b_);
  std::vector<uint64_t> hashes = {
      Expr::Join(x, y, p)->hash(),
      Expr::OuterJoin(x, y, p, true)->hash(),
      Expr::OuterJoin(x, y, p, false)->hash(),
      Expr::Semijoin(x, y, p, true)->hash(),
      Expr::Antijoin(x, y, p, true)->hash(),
  };
  for (size_t i = 0; i < hashes.size(); ++i) {
    for (size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace fro
