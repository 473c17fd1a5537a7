// Morsel-driven parallel execution (exec/morsel.h): the parallel batch
// pipeline must be result-transparent against the serial batch engine —
// identical result bags AND identical ExecStats counter totals — for
// every operator kind, at every worker count, down to one-row morsels.
// With threads <= 1 it must be *byte-identical* (same plan, same row
// order). Also covers the MorselQueue work-claiming contract, the GOJ
// cross-partition padding merge (each eq. 14 pad emitted exactly once,
// no matter how unmatched left rows scatter across morsels),
// cancellation/deadline propagation into worker pipelines, empty
// drivers, and EXPLAIN ANALYZE's Exchange rendering with serial-equal
// totals.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/batch_operators.h"
#include "exec/build.h"
#include "exec/morsel.h"
#include "exec/stats_view.h"
#include "lang/lang.h"
#include "optimizer/explain.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

void ExpectCountersEq(const ExecStats& got, const ExecStats& want,
                      const std::string& context) {
  EXPECT_EQ(got.left_reads, want.left_reads) << context;
  EXPECT_EQ(got.right_reads, want.right_reads) << context;
  EXPECT_EQ(got.emitted, want.emitted) << context;
  EXPECT_EQ(got.probes, want.probes) << context;
  EXPECT_EQ(got.predicate_evals, want.predicate_evals) << context;
}

// Runs `expr` serially and with `threads` workers over tiny morsels, and
// asserts equal result bags and exactly equal pipeline counter totals.
void ExpectParallelMatchesSerial(const ExprPtr& expr, const Database& db,
                                 int threads, size_t morsel_rows,
                                 JoinAlgo algo = JoinAlgo::kAuto) {
  const std::string context = expr->ToString() + " w=" +
                              std::to_string(threads) + " morsel=" +
                              std::to_string(morsel_rows);

  BatchIteratorPtr serial = BuildBatchIterator(expr, db, algo);
  Relation serial_out = DrainBatches(serial.get());

  ParallelOptions par;
  par.threads = threads;
  par.morsel_rows = morsel_rows;
  par.batch_capacity = 4;
  par.algo = algo;
  BatchIteratorPtr parallel = BuildParallelBatchIterator(expr, db, par);
  Relation parallel_out = DrainBatches(parallel.get());

  EXPECT_TRUE(BagEquals(serial_out, parallel_out)) << context;
  ExpectCountersEq(CollectPipelineStats(parallel.get()),
                   CollectPipelineStats(serial.get()), context);
}

// --- MorselQueue ------------------------------------------------------------

TEST(MorselQueueTest, ClaimsCoverRangeDisjointly) {
  MorselQueue queue(/*total_rows=*/103, /*morsel_rows=*/8);
  size_t begin = 0, end = 0;
  size_t covered = 0, claims = 0, next_expected = 0;
  while (queue.Claim(&begin, &end)) {
    EXPECT_EQ(begin, next_expected);
    EXPECT_GT(end, begin);
    EXPECT_LE(end - begin, 8u);
    covered += end - begin;
    next_expected = end;
    ++claims;
  }
  EXPECT_EQ(covered, 103u);
  EXPECT_EQ(claims, 13u);  // 12 full morsels + one 7-row tail
  EXPECT_FALSE(queue.Claim(&begin, &end));  // stays exhausted

  queue.Reset();
  ASSERT_TRUE(queue.Claim(&begin, &end));
  EXPECT_EQ(begin, 0u);
}

TEST(MorselQueueTest, ConcurrentClaimsPartitionTheRange) {
  MorselQueue queue(/*total_rows=*/1000, /*morsel_rows=*/7);
  std::vector<std::vector<std::pair<size_t, size_t>>> claimed(4);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&queue, &claimed, w] {
      size_t begin = 0, end = 0;
      while (queue.Claim(&begin, &end)) claimed[w].push_back({begin, end});
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<bool> seen(1000, false);
  for (const auto& ranges : claimed) {
    for (const auto& [begin, end] : ranges) {
      for (size_t i = begin; i < end; ++i) {
        EXPECT_FALSE(seen[i]) << "row " << i << " claimed twice";
        seen[i] = true;
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "row " << i << " never claimed";
  }
}

// --- operator-by-operator transparency -------------------------------------

class ParallelEquivTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c", "d"});
    a_ = db_.Attr("R", "a");
    b_ = db_.Attr("R", "b");
    c_ = db_.Attr("S", "c");
    d_ = db_.Attr("S", "d");
    // Enough driver rows that 1-row morsels make every worker claim
    // several; duplicate and null keys on both sides.
    for (int i = 0; i < 37; ++i) {
      const int key = i % 7;
      db_.AddRow(r_, {key == 5 ? Value::Null() : Value::Int(key),
                      Value::Int(i)});
    }
    for (int i = 0; i < 11; ++i) {
      const int key = i % 5;
      db_.AddRow(s_, {key == 3 ? Value::Null() : Value::Int(key),
                      Value::Int(100 + i)});
    }
  }

  ExprPtr LeafR() const { return Expr::Leaf(r_, db_); }
  ExprPtr LeafS() const { return Expr::Leaf(s_, db_); }

  std::vector<ExprPtr> SpineShapes() const {
    return {
        LeafR(),
        Expr::Restrict(LeafR(), CmpLit(CmpOp::kGe, b_, Value::Int(10))),
        Expr::Project(LeafR(), {a_}, /*dedup=*/false),
        Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
        Expr::Join(LeafR(), LeafS(), CmpCols(CmpOp::kLt, a_, c_)),
        Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                        /*preserves_left=*/true),
        Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                        /*preserves_left=*/false),
        Expr::Antijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
        Expr::Semijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
        Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_), AttrSet::Of({a_, b_})),
        // Multi-operator spine: filter, hash join, then project.
        Expr::Project(
            Expr::Restrict(Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
                           CmpLit(CmpOp::kGe, d_, Value::Int(100))),
            {a_, d_}, /*dedup=*/false),
        // Serial-root shapes: dedup project and union over parallel
        // children.
        Expr::Project(LeafR(), {a_}, /*dedup=*/true),
        Expr::Union(Expr::Project(LeafR(), {a_}, /*dedup=*/false),
                    Expr::Project(LeafS(), {c_}, /*dedup=*/false)),
    };
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_, d_;
};

TEST_F(ParallelEquivTest, EveryShapeAgreesAtEveryWorkerCount) {
  for (const ExprPtr& expr : SpineShapes()) {
    for (int threads : {2, 4, 8}) {
      for (size_t morsel_rows : {size_t{1}, size_t{5}}) {
        ExpectParallelMatchesSerial(expr, db_, threads, morsel_rows);
      }
    }
  }
}

TEST_F(ParallelEquivTest, NestedLoopAlgoAgrees) {
  for (const ExprPtr& expr : SpineShapes()) {
    ExpectParallelMatchesSerial(expr, db_, 4, 3, JoinAlgo::kNestedLoop);
  }
}

TEST_F(ParallelEquivTest, ThreadsOneIsByteIdentical) {
  for (const ExprPtr& expr : SpineShapes()) {
    BatchIteratorPtr serial = BuildBatchIterator(expr, db_);
    ParallelOptions par;  // threads = 1
    BatchIteratorPtr parallel = BuildParallelBatchIterator(expr, db_, par);
    // Same physical plan: identical row order, not just identical bags.
    EXPECT_EQ(CanonicalString(DrainBatches(parallel.get())),
              CanonicalString(DrainBatches(serial.get())))
        << expr->ToString();
  }
}

TEST_F(ParallelEquivTest, EmptyDriverRelation) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  RelId s = *db.AddRelation("S", {"c"});
  AttrId a = db.Attr("R", "a");
  AttrId c = db.Attr("S", "c");
  db.AddRow(s, {Value::Int(1)});
  for (int threads : {2, 8}) {
    ExpectParallelMatchesSerial(Expr::Leaf(r, db), db, threads, 4);
    ExpectParallelMatchesSerial(
        Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c)), db,
        threads, 4);
    ExpectParallelMatchesSerial(
        Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                        /*preserves_left=*/true),
        db, threads, 4);
  }
}

// The novel piece: eq. 14's padding term π[S](L) − π[S](JN) is computed
// from per-worker partial views and must come out exactly once however
// the unmatched left rows scatter across morsels.
TEST_F(ParallelEquivTest, GojPadsEmittedExactlyOnceAcrossPartitions) {
  // Distinct-projection padding: S = {a} only, so duplicate unmatched
  // a-values collapse to ONE pad row even when different workers saw
  // them.
  ExprPtr goj = Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_),
                          AttrSet::Of({a_}));
  for (int threads : {2, 3, 8}) {
    ExpectParallelMatchesSerial(goj, db_, threads, 1);
  }

  // Direct count check: every unmatched DISTINCT π[S] value pads once.
  ParallelOptions par;
  par.threads = 4;
  par.morsel_rows = 1;
  BatchIteratorPtr root = BuildParallelBatchIterator(goj, db_, par);
  Relation out = DrainBatches(root.get());
  BatchIteratorPtr serial = BuildBatchIterator(goj, db_);
  Relation serial_out = DrainBatches(serial.get());
  EXPECT_EQ(out.NumRows(), serial_out.NumRows());
  EXPECT_TRUE(BagEquals(out, serial_out));
}

// --- control propagation ----------------------------------------------------

TEST_F(ParallelEquivTest, CancellationStopsWorkers) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ParallelOptions par;
  par.threads = 4;
  par.morsel_rows = 1;
  BatchIteratorPtr root = BuildParallelBatchIterator(expr, db_, par);
  ExecControl control;
  root->SetControl(&control);
  control.RequestCancel();
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(ParallelEquivTest, ExpiredDeadlineSurfaces) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ParallelOptions par;
  par.threads = 4;
  BatchIteratorPtr root = BuildParallelBatchIterator(expr, db_, par);
  ExecControl control;
  control.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  root->SetControl(&control);
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// --- exchange reuse ---------------------------------------------------------

TEST_F(ParallelEquivTest, ExchangeReopensCleanly) {
  ExprPtr expr = Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                                 /*preserves_left=*/true);
  ParallelOptions par;
  par.threads = 3;
  par.morsel_rows = 2;
  BatchIteratorPtr root = BuildParallelBatchIterator(expr, db_, par);
  Relation first = DrainBatches(root.get());
  Relation second = DrainBatches(root.get());
  EXPECT_TRUE(BagEquals(first, second));
}

// --- EXPLAIN ANALYZE --------------------------------------------------------

TEST_F(ParallelEquivTest, ExplainAnalyzeShowsExchangeWithSerialTotals) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ExplainAnalyzeResult serial =
      ExplainAnalyze(expr, db_, JoinAlgo::kAuto, /*threads=*/1);
  ExplainAnalyzeResult parallel =
      ExplainAnalyze(expr, db_, JoinAlgo::kAuto, /*threads=*/4);
  EXPECT_EQ(serial.text.find("Exchange"), std::string::npos) << serial.text;
  EXPECT_NE(parallel.text.find("Exchange"), std::string::npos)
      << parallel.text;
  EXPECT_TRUE(BagEquals(serial.result, parallel.result));
  ExpectCountersEq(parallel.totals, serial.totals, "explain-analyze totals");
  EXPECT_EQ(parallel.base_tuples_read, serial.base_tuples_read);
}

// --- facade -----------------------------------------------------------------

TEST(ParallelFacadeTest, RunQueryWithThreadsMatchesSerial) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string query =
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#";
  Result<QueryRunResult> serial = RunQuery(db, query);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<QueryRunResult> parallel =
      RunQuery(db, query, RunOptions().WithThreads(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(BagEquals(serial->relation, parallel->relation));
  const ExecStats s = SumPipelineStats(serial->plan_stats);
  const ExecStats p = SumPipelineStats(parallel->plan_stats);
  ExpectCountersEq(p, s, "facade totals");
}

}  // namespace
}  // namespace fro
