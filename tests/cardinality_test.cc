#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"
#include "testing/datagen.h"

namespace fro {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c"});
    a_ = db_.Attr("R", "a");
    b_ = db_.Attr("R", "b");
    c_ = db_.Attr("S", "c");
    // R: 4 rows, a has 4 distinct, b has 2 distinct and one null.
    db_.AddRow(r_, {Value::Int(1), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(3), Value::Int(20)});
    db_.AddRow(r_, {Value::Int(4), Value::Null()});
    // S: 2 rows, c has 2 distinct.
    db_.AddRow(s_, {Value::Int(1)});
    db_.AddRow(s_, {Value::Int(2)});
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_;
};

TEST_F(CardinalityTest, StatsCollection) {
  CardinalityEstimator est(db_);
  EXPECT_EQ(est.BaseRows(r_), 4.0);
  EXPECT_EQ(est.StatsOf(a_).distinct, 4.0);
  EXPECT_EQ(est.StatsOf(b_).distinct, 2.0);
  EXPECT_DOUBLE_EQ(est.StatsOf(b_).null_fraction, 0.25);
  EXPECT_EQ(est.StatsOf(c_).distinct, 2.0);
}

TEST_F(CardinalityTest, EqualitySelectivity) {
  CardinalityEstimator est(db_);
  // 1 / max(d(a), d(c)) = 1/4.
  EXPECT_DOUBLE_EQ(est.Selectivity(EqCols(a_, c_)), 0.25);
  // Literal equality: 1 / d(a).
  EXPECT_DOUBLE_EQ(est.Selectivity(CmpLit(CmpOp::kEq, a_, Value::Int(1))),
                   0.25);
}

TEST_F(CardinalityTest, BooleanCombinators) {
  CardinalityEstimator est(db_);
  PredicatePtr eq = EqCols(a_, c_);  // 0.25
  EXPECT_DOUBLE_EQ(est.Selectivity(Predicate::And({eq, eq})), 0.0625);
  EXPECT_DOUBLE_EQ(est.Selectivity(Predicate::Or({eq, eq})),
                   1.0 - 0.75 * 0.75);
  EXPECT_DOUBLE_EQ(est.Selectivity(Predicate::Not(eq)), 0.75);
  EXPECT_DOUBLE_EQ(
      est.Selectivity(Predicate::IsNull(Operand::Column(b_))), 0.25);
  EXPECT_DOUBLE_EQ(est.Selectivity(Predicate::Const(false)), 0.0);
}

TEST_F(CardinalityTest, JoinEstimate) {
  CardinalityEstimator est(db_);
  ExprPtr join = Expr::Join(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                            EqCols(a_, c_));
  // 4 * 2 * 0.25 = 2.
  EXPECT_DOUBLE_EQ(est.Estimate(join), 2.0);
}

TEST_F(CardinalityTest, OuterJoinAtLeastPreserved) {
  CardinalityEstimator est(db_);
  ExprPtr oj = Expr::OuterJoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                               EqCols(a_, c_));
  // join part 2 + 4 * max(0, 1 - 0.25*2) = 2 + 2 = 4.
  EXPECT_DOUBLE_EQ(est.Estimate(oj), 4.0);
  EXPECT_GE(est.Estimate(oj), est.BaseRows(r_) * 0.999);
}

TEST_F(CardinalityTest, AntiSemiJoinEstimates) {
  CardinalityEstimator est(db_);
  ExprPtr aj = Expr::Antijoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                              EqCols(a_, c_));
  EXPECT_DOUBLE_EQ(est.Estimate(aj), 4.0 * 0.5);
  ExprPtr sj = Expr::Semijoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                              EqCols(a_, c_));
  EXPECT_DOUBLE_EQ(est.Estimate(sj), 4.0 * 0.5);
}

TEST_F(CardinalityTest, RestrictProjectUnionEstimates) {
  CardinalityEstimator est(db_);
  ExprPtr r = Expr::Leaf(r_, db_);
  EXPECT_DOUBLE_EQ(
      est.Estimate(Expr::Restrict(r, CmpLit(CmpOp::kEq, a_, Value::Int(1)))),
      1.0);
  EXPECT_DOUBLE_EQ(est.Estimate(Expr::Project(r, {b_}, /*dedup=*/true)),
                   2.0);
  EXPECT_DOUBLE_EQ(est.Estimate(Expr::Project(r, {b_}, /*dedup=*/false)),
                   4.0);
  EXPECT_DOUBLE_EQ(
      est.Estimate(Expr::Union(r, Expr::Leaf(s_, db_))), 6.0);
}

TEST_F(CardinalityTest, EmptyRelationSafe) {
  Database db;
  RelId e = *db.AddRelation("E", {"x"});
  CardinalityEstimator est(db);
  EXPECT_EQ(est.BaseRows(e), 0.0);
  EXPECT_EQ(est.StatsOf(db.Attr("E", "x")).distinct, 1.0);  // floor
}

// --- cached statistics -------------------------------------------------

// The estimator's constructor scan before statistics moved to the
// relation snapshot (Database::Snapshot), kept verbatim as the reference the cached
// statistics must equal bit for bit.
std::vector<AttrStats> FullScanStats(const Relation& relation) {
  std::vector<AttrStats> out;
  const Scheme& scheme = relation.scheme();
  for (size_t c = 0; c < scheme.size(); ++c) {
    std::set<Value> distinct;
    size_t nulls = 0;
    std::vector<double> numeric_values;
    for (const Tuple& row : relation.rows()) {
      const Value& v = row.value(c);
      if (v.is_null()) {
        ++nulls;
      } else {
        distinct.insert(v);
        if (v.kind() == Value::Kind::kInt ||
            v.kind() == Value::Kind::kDouble) {
          numeric_values.push_back(v.NumericValue());
        }
      }
    }
    AttrStats stats;
    stats.distinct = std::max<double>(1.0, distinct.size());
    stats.null_fraction =
        relation.NumRows() == 0
            ? 0.0
            : static_cast<double>(nulls) / relation.NumRows();
    if (numeric_values.size() >= 2) {
      auto [lo_it, hi_it] =
          std::minmax_element(numeric_values.begin(), numeric_values.end());
      Histogram& h = stats.histogram;
      h.lo = *lo_it;
      h.hi = *hi_it;
      if (h.hi > h.lo) {
        const double width = (h.hi - h.lo) / Histogram::kBuckets;
        for (double v : numeric_values) {
          int bucket = static_cast<int>((v - h.lo) / width);
          bucket = std::min(bucket, Histogram::kBuckets - 1);
          h.fractions[bucket] += 1.0;
        }
        for (double& f : h.fractions) f /= numeric_values.size();
        h.populated = true;
      }
    }
    out.push_back(stats);
  }
  return out;
}

void ExpectSameStats(const AttrStats& got, const AttrStats& want,
                     const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.null_fraction, want.null_fraction);
  EXPECT_EQ(got.histogram.populated, want.histogram.populated);
  EXPECT_EQ(got.histogram.lo, want.histogram.lo);
  EXPECT_EQ(got.histogram.hi, want.histogram.hi);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(got.histogram.fractions[b], want.histogram.fractions[b]);
  }
}

TEST(CachedStatsTest, EqualsFullScanOnRandomRelations) {
  // Columns: ints with nulls, doubles including 0.0 and -0.0, strings,
  // a mixed int/double column, an all-null column.
  std::mt19937 rng(20240917);
  Database db;
  std::vector<RelId> rels;
  for (int r = 0; r < 12; ++r) {
    RelId rel = *db.AddRelation("R" + std::to_string(r),
                                {"i", "d", "s", "m", "n"});
    rels.push_back(rel);
    const int rows = r == 0 ? 0 : static_cast<int>(rng() % 60);  // R0 empty
    for (int k = 0; k < rows; ++k) {
      auto maybe_null = [&](Value v) {
        return rng() % 5 == 0 ? Value::Null() : v;
      };
      const double doubles[] = {0.0, -0.0, 1.5, -2.25, 1e9};
      Value i = maybe_null(Value::Int(static_cast<int>(rng() % 17) - 8));
      Value d = maybe_null(Value::Double(doubles[rng() % 5]));
      Value s = maybe_null(Value::String(std::string(1 + rng() % 3,
                                                     'a' + rng() % 4)));
      Value m = maybe_null(rng() % 2 == 0
                               ? Value::Int(static_cast<int>(rng() % 5))
                               : Value::Double((rng() % 9) / 2.0));
      db.AddRow(rel, {i, d, s, m, Value::Null()});
    }
  }
  for (RelId rel : rels) {
    std::shared_ptr<const RelationSnapshot> snapshot = db.Snapshot(rel);
    const RelationStats& cached = snapshot->stats();
    std::vector<AttrStats> want = FullScanStats(db.relation(rel));
    ASSERT_EQ(cached.size(), want.size());
    CardinalityEstimator est(db);
    for (size_t c = 0; c < want.size(); ++c) {
      const std::string where = db.catalog().AttrName(db.scheme(rel).col(c));
      ExpectSameStats(cached[c], want[c], where);
      ExpectSameStats(est.StatsOf(db.scheme(rel).col(c)), want[c], where);
    }
  }
}

TEST_F(CardinalityTest, StatsAreCachedPerRelationVersion) {
  std::shared_ptr<const RelationSnapshot> first = db_.Snapshot(r_);
  EXPECT_EQ(db_.Snapshot(r_), first);  // no mutation, same snapshot

  // Each mutation path drops the snapshot; a new estimator sees the new
  // version, while one that already read the old version keeps reading
  // it (its snapshot stays alive).
  CardinalityEstimator before(db_);
  const AttrStats& old_a = before.StatsOf(a_);
  EXPECT_EQ(old_a.distinct, 4.0);

  db_.AddRow(r_, {Value::Int(5), Value::Int(30)});
  EXPECT_NE(db_.Snapshot(r_), first);
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(a_).distinct, 5.0);
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(b_).distinct, 3.0);

  db_.SetRows(r_, {Tuple({Value::Int(7), Value::Null()})});
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(a_).distinct, 1.0);
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(b_).null_fraction, 1.0);

  db_.mutable_relation(r_)->AddRow({Value::Int(8), Value::Int(1)});
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(a_).distinct, 2.0);
  EXPECT_EQ(CardinalityEstimator(db_).StatsOf(b_).null_fraction, 0.5);

  RelId t = *db_.AddRelation("T", {"x"});
  db_.AddRow(t, {Value::Int(1)});
  db_.AddRow(t, {Value::Int(2)});
  CardinalityEstimator after(db_);
  EXPECT_EQ(after.StatsOf(db_.Attr("T", "x")).distinct, 2.0);
  EXPECT_EQ(after.StatsOf(a_).distinct, 2.0);
  EXPECT_EQ(after.StatsOf(c_).distinct, 2.0);

  EXPECT_EQ(old_a.distinct, 4.0);
  EXPECT_EQ(before.StatsOf(a_).distinct, 4.0);
  EXPECT_EQ(before.StatsOf(b_).null_fraction, 0.25);
}

TEST_F(CardinalityTest, UnknownAttributeGetsDefaultStats) {
  CardinalityEstimator est(db_);
  const AttrId unknown = static_cast<AttrId>(db_.catalog().num_attrs() + 5);
  EXPECT_EQ(est.StatsOf(unknown).distinct, 1.0);
  EXPECT_EQ(est.StatsOf(unknown).null_fraction, 0.0);
  EXPECT_FALSE(est.StatsOf(unknown).histogram.populated);
}

TEST(CachedStatsTest, ConcurrentOptimizeSharesFirstUse) {
  // Every thread's first StatsOf finds the cache empty and races to fill
  // it; all of them must plan alike and end up sharing one snapshot.
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  RelId s = *db.AddRelation("S", {"b", "c"});
  RelId t = *db.AddRelation("T", {"c", "d"});
  for (int i = 0; i < 300; ++i) {
    db.AddRow(r, {Value::Int(i), Value::Int(i % 40)});
    db.AddRow(s, {Value::Int(i % 40), Value::Int(i % 7)});
    db.AddRow(t, {Value::Int(i % 7), Value::Int(i)});
  }
  ExprPtr query = Expr::OuterJoin(
      Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db),
                 EqCols(db.Attr("R", "b"), db.Attr("S", "b"))),
      Expr::Leaf(t, db), EqCols(db.Attr("S", "c"), db.Attr("T", "c")));

  constexpr int kThreads = 4;
  std::vector<uint64_t> plans(kThreads, 0);
  std::vector<double> costs(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      Result<OptimizeOutcome> out = Optimize(query, db);
      if (out.ok()) {
        plans[i] = out->plan->hash();
        costs[i] = out->cost;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  Result<OptimizeOutcome> serial = Optimize(query, db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(plans[i], serial->plan->hash()) << "thread " << i;
    EXPECT_EQ(costs[i], serial->cost) << "thread " << i;
  }
  EXPECT_EQ(db.Snapshot(r), db.Snapshot(r));
}

// --- feedback-driven gate flips ---------------------------------------
//
// The wcoj and acyclic rewrite gates both compare
// PlanCost(rewritten) < PlanCost(baseline), and PlanCost recurses through
// CardinalityEstimator::Estimate — so runtime corrections for the binary
// plan's subtree hashes re-price the baseline and can flip a gate that
// the static model decided the other way.

void CollectKind(const ExprPtr& node, OpKind kind,
                 std::vector<uint64_t>* out) {
  if (node == nullptr) return;
  if (node->kind() == kind) out->push_back(node->hash());
  CollectKind(node->left(), kind, out);
  CollectKind(node->right(), kind, out);
  for (const ExprPtr& child : node->mj_children()) {
    CollectKind(child, kind, out);
  }
}

bool ContainsKind(const ExprPtr& node, OpKind kind) {
  std::vector<uint64_t> hashes;
  CollectKind(node, kind, &hashes);
  return !hashes.empty();
}

TEST(FeedbackGateFlipTest, AcyclicGateFlipsWhenBinaryPlanIsRepriced) {
  // A 3-chain whose statically-estimated joins are cheap: the Yannakakis
  // program's semijoin nodes cost more (Cout) than they save, so the
  // static gate keeps the binary plan.
  Database db;
  RelId r1 = *db.AddRelation("R1", {"a", "b"});
  RelId r2 = *db.AddRelation("R2", {"b", "c"});
  RelId r3 = *db.AddRelation("R3", {"c", "d"});
  for (int i = 0; i < 4; ++i) {
    db.AddRow(r1, {Value::Int(i), Value::Int(i)});
    db.AddRow(r3, {Value::Int(i), Value::Int(i)});
  }
  for (int i = 0; i < 8; ++i) {
    db.AddRow(r2, {Value::Int(i), Value::Int(i)});
  }
  ExprPtr query = Expr::Join(
      Expr::Join(Expr::Leaf(r1, db), Expr::Leaf(r2, db),
                 EqCols(db.Attr("R1", "b"), db.Attr("R2", "b"))),
      Expr::Leaf(r3, db), EqCols(db.Attr("R2", "c"), db.Attr("R3", "c")));

  Result<OptimizeOutcome> cold = Optimize(query, db);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->PassApplications("acyclic"), 0)
      << "static gate must decline for the flip to be observable";
  ASSERT_FALSE(ContainsKind(cold->plan, OpKind::kSemijoin));

  // Execution "revealed" the binary joins explode: correct every join
  // node of the chosen plan to a huge cardinality. Re-planning must now
  // prefer the semijoin program, whose internal nodes hash differently
  // and keep their static estimates.
  CardinalityFeedback feedback;
  std::vector<uint64_t> joins;
  CollectKind(cold->plan, OpKind::kJoin, &joins);
  ASSERT_FALSE(joins.empty());
  for (uint64_t h : joins) feedback.Set(h, 1e6);

  OptimizeOptions with_feedback;
  with_feedback.feedback = &feedback;
  Result<OptimizeOutcome> warm = Optimize(query, db, with_feedback);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm->PassApplications("acyclic"), 1);
  EXPECT_TRUE(ContainsKind(warm->plan, OpKind::kSemijoin));
}

TEST(FeedbackGateFlipTest, WcojGateFlipsWhenMultiwayOutputIsRepriced) {
  // A triangle: the static model prices the leapfrog multiway join below
  // the binary plan (one output charge instead of two), so the cold gate
  // collapses the core.
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  RelId s = *db.AddRelation("S", {"b", "c"});
  RelId t = *db.AddRelation("T", {"c", "a"});
  for (int i = 0; i < 4; ++i) {
    db.AddRow(r, {Value::Int(i), Value::Int(i)});
    db.AddRow(s, {Value::Int(i), Value::Int(i)});
    db.AddRow(t, {Value::Int(i), Value::Int(i)});
  }
  ExprPtr query = Expr::Join(
      Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db),
                 EqCols(db.Attr("R", "b"), db.Attr("S", "b"))),
      Expr::Leaf(t, db),
      Predicate::And({EqCols(db.Attr("S", "c"), db.Attr("T", "c")),
                      EqCols(db.Attr("T", "a"), db.Attr("R", "a"))}));

  Result<OptimizeOutcome> cold = Optimize(query, db);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GE(cold->PassApplications("wcoj"), 1)
      << "static gate must collapse the core for the flip to be "
         "observable";
  std::vector<uint64_t> multiway;
  CollectKind(cold->plan, OpKind::kMultiwayJoin, &multiway);
  ASSERT_FALSE(multiway.empty());

  // Execution measured the multiway join's true output as enormous:
  // with the correction in place the binary baseline wins the gate back.
  CardinalityFeedback feedback;
  for (uint64_t h : multiway) feedback.Set(h, 1e9);
  OptimizeOptions with_feedback;
  with_feedback.feedback = &feedback;
  Result<OptimizeOutcome> warm = Optimize(query, db, with_feedback);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->PassApplications("wcoj"), 0);
  EXPECT_FALSE(ContainsKind(warm->plan, OpKind::kMultiwayJoin));
}

}  // namespace
}  // namespace fro
