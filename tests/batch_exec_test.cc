// Batch-executor equivalence suite: the batch executor must be
// result-transparent — byte-identical results (canonical form) and
// identical ExecStats counters — against the materializing evaluator,
// operator by operator and at every batch capacity, on the paper's
// example databases, null-heavy outerjoin inputs, empty relations, and
// batch-boundary input sizes (0, 1, capacity, capacity+1). Also covers
// the Status-carrying DrainChecked surface (kCancelled /
// kDeadlineExceeded), its columnar twin DrainColumns, and RunQuery's
// deadline and cancel options.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/build.h"
#include "exec/stats_view.h"
#include "lang/lang.h"
#include "optimizer/wcoj_rewrite.h"
#include "testing/datagen.h"
#include "testing/graphgen.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

// Counter equality ignoring wall-clock fields (the evaluator keeps none).
void ExpectCountersEq(const ExecStats& got, const ExecStats& want,
                      const std::string& context) {
  EXPECT_EQ(got.left_reads, want.left_reads) << context;
  EXPECT_EQ(got.right_reads, want.right_reads) << context;
  EXPECT_EQ(got.emitted, want.emitted) << context;
  EXPECT_EQ(got.probes, want.probes) << context;
  EXPECT_EQ(got.predicate_evals, want.predicate_evals) << context;
}

// Runs `expr` through the evaluator and the batch pipeline (at
// `capacity` tuples per batch) and asserts results byte-identical in
// canonical form and pipeline counter totals equal.
void ExpectBatchMatchesEval(const ExprPtr& expr, const Database& db,
                            JoinAlgo algo, size_t capacity) {
  const std::string context =
      expr->ToString() + " cap=" + std::to_string(capacity);

  EvalOptions eval_options;
  eval_options.algo = algo;
  EvalStats eval_stats;
  Relation reference = Eval(expr, db, eval_options, &eval_stats);

  BatchIteratorPtr batch_root = BuildBatchIterator(expr, db, algo, capacity);
  Relation batch_out = DrainBatches(batch_root.get());

  // Byte-identical: canonical renderings match exactly.
  EXPECT_EQ(CanonicalString(batch_out), CanonicalString(reference))
      << context;
  ExpectCountersEq(CollectPipelineStats(batch_root.get()), eval_stats.totals,
                   context);
}

void ExpectBatchMatchesEvalAllCapacities(const ExprPtr& expr,
                                         const Database& db, JoinAlgo algo) {
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    ExpectBatchMatchesEval(expr, db, algo, capacity);
  }
}

// --- TupleBatch container semantics -----------------------------------

TEST(TupleBatchTest, AppendSizeAndSelection) {
  TupleBatch batch(4);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());
  for (int i = 0; i < 4; ++i) {
    batch.Append(Tuple({Value::Int(i)}));
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.NumRows(), 4u);

  // Keep even values only: selection narrows without moving tuples.
  batch.NarrowSelection([](const Tuple& row, uint32_t) {
    return row.value(0).AsInt() % 2 == 0;
  });
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.NumRows(), 4u);  // raw rows untouched
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 0);
  EXPECT_EQ(batch.selected(1).value(0).AsInt(), 2);

  // Narrowing composes: a second predicate sees only live rows.
  batch.NarrowSelection([](const Tuple& row, uint32_t) {
    return row.value(0).AsInt() > 0;
  });
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 2);
}

TEST(TupleBatchTest, PeekSlotCommitsOnlyOnRequest) {
  TupleBatch batch(2);
  Tuple* slot = batch.PeekSlot();
  slot->AssignFrom(Tuple({Value::Int(7)}));
  EXPECT_EQ(batch.size(), 0u);  // peeked, not committed: row is dead
  batch.CommitSlot();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 7);

  // A peeked-but-uncommitted candidate is simply overwritten next time.
  batch.PeekSlot()->AssignFrom(Tuple({Value::Int(8)}));
  batch.PeekSlot()->AssignFrom(Tuple({Value::Int(9)}));
  batch.CommitSlot();
  EXPECT_EQ(batch.selected(1).value(0).AsInt(), 9);
}

TEST(TupleBatchTest, ClearRetainsSlotsAndDropsSelection) {
  TupleBatch batch(3);
  batch.Append(Tuple({Value::Int(1), Value::Int(2)}));
  batch.NarrowSelection([](const Tuple&, uint32_t) { return false; });
  EXPECT_TRUE(batch.empty());
  batch.Clear();
  EXPECT_FALSE(batch.sel_active());
  EXPECT_EQ(batch.NumRows(), 0u);
  // Slots survive Clear(): refilling reuses them (same address).
  Tuple* slot = batch.PeekSlot();
  EXPECT_EQ(slot, &batch.mutable_row(0));
  slot->AssignFrom(Tuple({Value::Int(3), Value::Int(4)}));
  batch.CommitSlot();
  EXPECT_EQ(batch.size(), 1u);
}

// --- Operator-by-operator equivalence ---------------------------------

class BatchEquivTest : public ::testing::Test {
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

  std::vector<ExprPtr> AllOperatorKinds() const {
    return {
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
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_, d_;
};

TEST_F(BatchEquivTest, EveryOperatorKindMatchesEval) {
  for (const ExprPtr& expr : AllOperatorKinds()) {
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectBatchMatchesEvalAllCapacities(expr, db_, algo);
    }
  }
}

TEST_F(BatchEquivTest, CompositePipelineAgrees) {
  ExprPtr expr = Expr::Project(
      Expr::Restrict(Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
                     CmpLit(CmpOp::kGe, d_, Value::Int(100))),
      {a_, d_}, /*dedup=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectBatchMatchesEvalAllCapacities(expr, db_, algo);
  }
}

// Null join keys on both sides: the SQL three-valued-logic corners that
// distinguish outerjoin, antijoin, and semijoin.
TEST(BatchNullKeyTest, NullHeavyOuterAntiSemiAgree) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  RelId s = *db.AddRelation("S", {"c"});
  AttrId a = db.Attr("R", "a");
  AttrId c = db.Attr("S", "c");
  db.AddRow(r, {Value::Int(1)});
  db.AddRow(r, {Value::Null()});
  db.AddRow(r, {Value::Int(2)});
  db.AddRow(r, {Value::Null()});
  db.AddRow(s, {Value::Int(1)});
  db.AddRow(s, {Value::Null()});
  db.AddRow(s, {Value::Null()});

  auto leaf_r = [&] { return Expr::Leaf(r, db); };
  auto leaf_s = [&] { return Expr::Leaf(s, db); };
  std::vector<ExprPtr> exprs;
  for (bool flag : {true, false}) {
    exprs.push_back(Expr::OuterJoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
    exprs.push_back(Expr::Antijoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
    exprs.push_back(Expr::Semijoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
  }
  for (const ExprPtr& expr : exprs) {
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectBatchMatchesEvalAllCapacities(expr, db, algo);
    }
  }
}

// Empty inputs on either or both sides of every join mode.
TEST(BatchEmptyInputTest, EmptyRelationsAgree) {
  for (bool left_empty : {true, false}) {
    for (bool right_empty : {true, false}) {
      Database db;
      RelId r = *db.AddRelation("R", {"a"});
      RelId s = *db.AddRelation("S", {"c"});
      AttrId a = db.Attr("R", "a");
      AttrId c = db.Attr("S", "c");
      if (!left_empty) {
        db.AddRow(r, {Value::Int(1)});
        db.AddRow(r, {Value::Int(2)});
      }
      if (!right_empty) {
        db.AddRow(s, {Value::Int(1)});
      }
      std::vector<ExprPtr> exprs = {
          Expr::Leaf(r, db),
          Expr::Restrict(Expr::Leaf(r, db),
                         CmpLit(CmpOp::kGe, a, Value::Int(2))),
          Expr::Project(Expr::Leaf(r, db), {a}, /*dedup=*/true),
          Expr::Union(Expr::Leaf(r, db), Expr::Leaf(s, db)),
          Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c)),
          Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                          /*preserves_left=*/true),
          Expr::Antijoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                         /*keeps_left=*/true),
          Expr::Semijoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                         /*keeps_left=*/true),
          Expr::Goj(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                    AttrSet::Of({a})),
      };
      for (const ExprPtr& expr : exprs) {
        for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
          ExpectBatchMatchesEvalAllCapacities(expr, db, algo);
        }
      }
    }
  }
}

// Input sizes straddling the batch boundary: 0, 1, capacity, capacity+1
// rows through scan -> filter -> hash join at capacity 4, so every
// resume point (mid-left-row, unmatched-left epilogue) is exercised.
TEST(BatchBoundaryTest, SizesAroundCapacityAgree) {
  constexpr size_t kCapacity = 4;
  for (int rows : {0, 1, 4, 5}) {
    Database db;
    RelId r = *db.AddRelation("R", {"a", "b"});
    RelId s = *db.AddRelation("S", {"c"});
    AttrId a = db.Attr("R", "a");
    AttrId b = db.Attr("R", "b");
    AttrId c = db.Attr("S", "c");
    for (int i = 0; i < rows; ++i) {
      db.AddRow(r, {Value::Int(i % 3), Value::Int(i)});
    }
    // Build side fans out: two matches per key 0/1, none for key 2.
    db.AddRow(s, {Value::Int(0)});
    db.AddRow(s, {Value::Int(0)});
    db.AddRow(s, {Value::Int(1)});
    db.AddRow(s, {Value::Int(1)});

    ExprPtr expr = Expr::Join(
        Expr::Restrict(Expr::Leaf(r, db),
                       CmpLit(CmpOp::kGe, b, Value::Int(0))),
        Expr::Leaf(s, db), EqCols(a, c));
    ExprPtr outer = Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db),
                                    EqCols(a, c), /*preserves_left=*/true);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectBatchMatchesEval(expr, db, algo, kCapacity);
      ExpectBatchMatchesEval(outer, db, algo, kCapacity);
    }
  }
}

// The paper's Example 1 and DEPT/EMP databases through the executor.
TEST(BatchExampleDatabasesTest, Example1OrdersAgree) {
  std::unique_ptr<Database> db = MakeExample1Database(100);
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

  for (const ExprPtr& expr : {naive, reordered}) {
    ExpectBatchMatchesEvalAllCapacities(expr, *db, JoinAlgo::kAuto);
  }
  EXPECT_TRUE(BagEquals(ExecuteBatched(naive, *db),
                        ExecuteBatched(reordered, *db)));
}

TEST(BatchExampleDatabasesTest, DeptEmpOuterjoinAgrees) {
  std::unique_ptr<Database> db = MakeDeptEmpDatabase();
  RelId dept = db->Rel("DEPT");
  RelId emp = db->Rel("EMP");
  AttrId dept_dno = db->Attr("DEPT", "dno");
  AttrId emp_dno = db->Attr("EMP", "dno");
  ExprPtr expr =
      Expr::OuterJoin(Expr::Leaf(dept, *db), Expr::Leaf(emp, *db),
                      EqCols(dept_dno, emp_dno), /*preserves_left=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectBatchMatchesEvalAllCapacities(expr, *db, algo);
  }
}

// Example 2: the two bracketings of R1 -> (R2 - R3) genuinely differ
// (that is the paper's counterexample) — but *within* each bracketing,
// the executor must produce the evaluator's rows. Executor equivalence
// has to hold exactly where plan equivalence fails.
TEST(BatchExampleDatabasesTest, Example2BracketingsAgreePerTree) {
  Database db;
  RelId r1 = *db.AddRelation("R1", {"a"});
  RelId r2 = *db.AddRelation("R2", {"b"});
  RelId r3 = *db.AddRelation("R3", {"c"});
  AttrId a = db.Attr("R1", "a");
  AttrId b = db.Attr("R2", "b");
  AttrId c = db.Attr("R3", "c");
  db.AddRow(r1, {Value::Int(1)});
  db.AddRow(r2, {Value::Int(1)});   // matches r1 on the outerjoin pred
  db.AddRow(r3, {Value::Int(99)});  // does NOT match r2 on the join pred
  PredicatePtr poj = EqCols(a, b);
  PredicatePtr pjn = EqCols(b, c);
  ExprPtr oj_of_join = Expr::OuterJoin(
      Expr::Leaf(r1, db),
      Expr::Join(Expr::Leaf(r2, db), Expr::Leaf(r3, db), pjn), poj,
      /*preserves_left=*/true);
  ExprPtr join_of_oj = Expr::Join(
      Expr::OuterJoin(Expr::Leaf(r1, db), Expr::Leaf(r2, db), poj,
                      /*preserves_left=*/true),
      Expr::Leaf(r3, db), pjn);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectBatchMatchesEvalAllCapacities(oj_of_join, db, algo);
    ExpectBatchMatchesEvalAllCapacities(join_of_oj, db, algo);
  }
  // The counterexample itself still holds through the batch engine.
  EXPECT_EQ(ExecuteBatched(oj_of_join, db).NumRows(), 1u);
  EXPECT_EQ(ExecuteBatched(join_of_oj, db).NumRows(), 0u);
}

// Example 3: the non-strong predicate (… OR … IS NULL) that breaks
// identity 12. Null-supplied tuples satisfying a predicate via the
// IS NULL disjunct are exactly the case batched predicate evaluation
// must not get wrong.
TEST(BatchExampleDatabasesTest, Example3NonstrongPredicateAgreesPerTree) {
  Database db;
  RelId ra = *db.AddRelation("A", {"attr1"});
  RelId rb = *db.AddRelation("B", {"attr1", "attr2"});
  RelId rc = *db.AddRelation("C", {"attr1"});
  AttrId a1 = db.Attr("A", "attr1");
  AttrId b1 = db.Attr("B", "attr1");
  AttrId b2 = db.Attr("B", "attr2");
  AttrId c1 = db.Attr("C", "attr1");
  db.AddRow(ra, {Value::Int(0)});
  db.AddRow(rb, {Value::Int(1), Value::Null()});  // (b, -): b != a
  db.AddRow(rc, {Value::Int(2)});
  PredicatePtr pab = EqCols(a1, b1);
  PredicatePtr pbc = Predicate::Or(
      {EqCols(b2, c1), Predicate::IsNull(Operand::Column(b2))});
  ExprPtr left_assoc = Expr::OuterJoin(
      Expr::OuterJoin(Expr::Leaf(ra, db), Expr::Leaf(rb, db), pab,
                      /*preserves_left=*/true),
      Expr::Leaf(rc, db), pbc, /*preserves_left=*/true);
  ExprPtr right_assoc = Expr::OuterJoin(
      Expr::Leaf(ra, db),
      Expr::OuterJoin(Expr::Leaf(rb, db), Expr::Leaf(rc, db), pbc,
                      /*preserves_left=*/true),
      pab, /*preserves_left=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectBatchMatchesEvalAllCapacities(left_assoc, db, algo);
    ExpectBatchMatchesEvalAllCapacities(right_assoc, db, algo);
  }
  EXPECT_FALSE(BagEquals(ExecuteBatched(left_assoc, db),
                         ExecuteBatched(right_assoc, db)));
}

TEST(BatchPropertyTest, RandomQueriesMatchEval) {
  Rng rng(8804);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(3));
    options.rows.null_prob = 0.25;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    ASSERT_NE(tree, nullptr);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      const size_t capacity = 1 + rng.Uniform(5);
      ExpectBatchMatchesEval(tree, *q.db, algo, capacity);
      ExpectBatchMatchesEval(tree, *q.db, algo, TupleBatch::kDefaultCapacity);
    }
  }
}

// --- DrainChecked: the Status-carrying execution surface --------------

TEST_F(BatchEquivTest, DrainCheckedSurfacesCancellation) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ExecControl control;
  control.RequestCancel();
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  root->SetControl(&control);
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(BatchEquivTest, DrainCheckedSurfacesDeadline) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ExecControl control;
  control.set_deadline(std::chrono::steady_clock::now());  // already due
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  root->SetControl(&control);
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(BatchEquivTest, DrainCheckedWithoutControlMatchesDrain) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  Result<Relation> checked = DrainChecked(root.get(), nullptr);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(CanonicalString(*checked),
            CanonicalString(ExecuteBatched(expr, db_)));
}

// --- DrainColumns: the columnar drain -------------------------------

// How a pipeline hands out its first batch.
enum class BatchForm { kView, kColumns, kRows };

BatchForm FirstBatchForm(const ExprPtr& expr, const Database& db) {
  BatchIteratorPtr root = BuildBatchIterator(expr, db, JoinAlgo::kAuto);
  root->Open();
  TupleBatch batch;
  EXPECT_TRUE(root->NextBatch(&batch)) << expr->ToString();
  const BatchForm form = batch.is_view()    ? BatchForm::kView
                         : batch.columnar() ? BatchForm::kColumns
                                            : BatchForm::kRows;
  root->Close();
  return form;
}

// DrainColumns returns DrainChecked's rows, in its order, at every batch
// capacity.
void ExpectDrainsAgree(const ExprPtr& expr, const Database& db) {
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    const std::string context =
        expr->ToString() + " cap=" + std::to_string(capacity);
    BatchIteratorPtr row_root =
        BuildBatchIterator(expr, db, JoinAlgo::kAuto, capacity);
    Result<Relation> rows = DrainChecked(row_root.get(), nullptr);
    BatchIteratorPtr column_root =
        BuildBatchIterator(expr, db, JoinAlgo::kAuto, capacity);
    Result<ColumnTable> columns = DrainColumns(column_root.get(), nullptr);
    ASSERT_TRUE(rows.ok() && columns.ok()) << context;
    EXPECT_EQ(columns->scheme(), rows->scheme()) << context;
    EXPECT_EQ(columns->NumRows(), rows->NumRows()) << context;
    EXPECT_EQ(columns->ToRelation().rows(), rows->rows()) << context;
  }
}

TEST_F(BatchEquivTest, DrainColumnsMatchesDrainCheckedOnEveryBatchForm) {
  // A filtered scan: relation-backed views, narrowed by a selection.
  const ExprPtr filtered =
      Expr::Restrict(LeafR(), CmpLit(CmpOp::kGe, b_, Value::Int(20)));
  EXPECT_EQ(FirstBatchForm(filtered, db_), BatchForm::kView);
  ExpectDrainsAgree(filtered, db_);
  // A pure equi hash join emits owned columns.
  const ExprPtr hash_join = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  EXPECT_EQ(FirstBatchForm(hash_join, db_), BatchForm::kColumns);
  ExpectDrainsAgree(hash_join, db_);
  // GOJ and a residual (non-equi) join fill row slots.
  const ExprPtr goj =
      Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_), AttrSet::Of({a_, b_}));
  EXPECT_EQ(FirstBatchForm(goj, db_), BatchForm::kRows);
  ExpectDrainsAgree(goj, db_);
  const ExprPtr residual =
      Expr::Join(LeafR(), LeafS(), CmpCols(CmpOp::kLt, a_, c_));
  EXPECT_EQ(FirstBatchForm(residual, db_), BatchForm::kRows);
  ExpectDrainsAgree(residual, db_);
  for (const ExprPtr& expr : AllOperatorKinds()) ExpectDrainsAgree(expr, db_);
}

TEST(BatchDrainColumnsTest, LeapfrogRowsAndMixedColumnsAgree) {
  // A triangle forced onto leapfrog, whose relations mix ints, doubles,
  // strings and nulls in one column, so the drained columns demote.
  Database db;
  std::vector<RelId> rels;
  for (int i = 0; i < 3; ++i) {
    rels.push_back(
        *db.AddRelation("R" + std::to_string(i), {"a0", "a1", "tag"}));
  }
  Rng rng(20261022);
  for (RelId rel : rels) {
    for (int row = 0; row < 40; ++row) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(4));
      const std::string name = "t" + std::to_string(row);
      Value tag = rng.Bernoulli(0.2)   ? Value::Null()
                  : rng.Bernoulli(0.3) ? Value::String(name)
                  : rng.Bernoulli(0.5) ? Value::Double(row * 0.5)
                                       : Value::Int(row);
      db.AddRow(rel, {Value::Int(key), Value::Int((key + row) % 4), tag});
    }
  }
  const ExprPtr triangle = ForceMultiwayJoins(Expr::Join(
      Expr::Join(Expr::Leaf(rels[0], db), Expr::Leaf(rels[1], db),
                 EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0"))),
      Expr::Leaf(rels[2], db),
      AndOf(EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0")),
            EqCols(db.Attr("R2", "a1"), db.Attr("R0", "a0")))));
  ASSERT_TRUE(triangle->is_multiway());
  BatchIteratorPtr root = BuildBatchIterator(triangle, db);
  EXPECT_GT(DrainBatches(root.get()).NumRows(), 0u);
  EXPECT_EQ(FirstBatchForm(triangle, db), BatchForm::kRows);
  ExpectDrainsAgree(triangle, db);
  ExpectDrainsAgree(Expr::Leaf(rels[0], db), db);
}

TEST_F(BatchEquivTest, DrainColumnsSurfacesTheSameStatuses) {
  const ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  auto drain_both = [&](auto arm) {
    ExecControl row_control;
    ExecControl column_control;
    arm(&row_control);
    arm(&column_control);
    BatchIteratorPtr row_root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    row_root->SetControl(&row_control);
    BatchIteratorPtr column_root =
        BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    column_root->SetControl(&column_control);
    const Status rows = DrainChecked(row_root.get(), &row_control).status();
    const Status columns =
        DrainColumns(column_root.get(), &column_control).status();
    EXPECT_EQ(columns.code(), rows.code());
    EXPECT_EQ(columns.message(), rows.message());
    return columns.code();
  };
  EXPECT_EQ(drain_both([](ExecControl* control) { control->RequestCancel(); }),
            StatusCode::kCancelled);
  EXPECT_EQ(drain_both([](ExecControl* control) {
              control->set_deadline(std::chrono::steady_clock::now());
            }),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(drain_both([](ExecControl*) {}), StatusCode::kOk);
}

// --- RunQuery: counters, deadline, and cancel through RunOptions ------

// The facade's plan_stats snapshot sums to the evaluator's counters for
// the plan it executed.
TEST(BatchRunQueryTest, FacadeCountersMatchEval) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string query =
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#";
  Result<QueryRunResult> run = RunQuery(db, query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EvalStats eval_stats;
  Relation reference = Eval(run->optimize.plan, *run->translation.db,
                            EvalOptions(), &eval_stats);
  EXPECT_EQ(CanonicalString(run->relation), CanonicalString(reference));
  ExpectCountersEq(SumPipelineStats(run->plan_stats), eval_stats.totals,
                   query);
}

TEST(BatchRunQueryTest, ExpiredDeadlineSurfacesThroughRunQuery) {
  NestedDb db = MakeScaledCompanyNestedDb(50);
  const std::string query =
      "Select All From EMPLOYEE e1, EMPLOYEE e2 Where e1.Rank = e2.Rank";
  Result<QueryRunResult> run = RunQuery(
      db, query, RunOptions().WithDeadline(std::chrono::milliseconds(0)));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BatchRunQueryTest, CancelledControlSurfacesThroughRunQuery) {
  NestedDb db = MakeCompanyNestedDb();
  ExecControl control;
  control.RequestCancel();
  Result<QueryRunResult> run =
      RunQuery(db, "Select All From EMPLOYEE",
               RunOptions().WithControl(&control));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace fro
