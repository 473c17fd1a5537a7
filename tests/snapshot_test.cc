// Relation snapshots (relational/snapshot.h): every mutation path drops
// the derived structures, a held snapshot outlives mutations, cold and
// warm executions agree exactly (results, per-operator counters,
// EXPLAIN ANALYZE) while the warm one builds nothing, a concurrent first
// use builds each structure once, and the evaluator's opt-in snapshot
// indexes leave Example 1's counters unchanged.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/build.h"
#include "exec/stats_view.h"
#include "optimizer/explain.h"
#include "optimizer/wcoj_rewrite.h"
#include "relational/index.h"
#include "testing/datagen.h"
#include "testing/graphgen.h"
#include "wcoj/trie_index.h"

namespace fro {
namespace {

/// Derived structures built so far over the current snapshots of every
/// relation of `db`.
uint64_t TotalBuilds(const Database& db) {
  uint64_t total = 0;
  for (RelId rel = 0; rel < db.num_relations(); ++rel) {
    total += db.Snapshot(rel)->builds();
  }
  return total;
}

std::shared_ptr<const TrieIndex> SnapshotTrie(
    const RelationSnapshot& snapshot, const std::vector<AttrId>& levels) {
  const std::vector<size_t> positions =
      snapshot.relation().scheme().PositionsOf(levels);
  return snapshot.Derived<TrieIndex>("trie", positions, [&] {
    return std::make_shared<const TrieIndex>(snapshot.relation(), positions);
  });
}

// --- mutation paths ------------------------------------------------------

class SnapshotMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c", "d"});
    for (int i = 0; i < 40; ++i) {
      db_.AddRow(r_, {Value::Int(i), Value::Int(i % 7)});
    }
    for (int i = 0; i < 5; ++i) {
      db_.AddRow(s_, {Value::Int(i), Value::Int(10 * i)});
    }
    query_ = Expr::OuterJoin(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                             EqCols(db_.Attr("R", "b"), db_.Attr("S", "c")));
  }

  /// Runs the query (its build side is the bare scan of S) and returns
  /// S's snapshot, which now holds the join table.
  std::shared_ptr<const RelationSnapshot> WarmS() {
    ExecuteBatched(query_, db_);
    std::shared_ptr<const RelationSnapshot> snapshot = db_.Snapshot(s_);
    EXPECT_EQ(snapshot->Structures().size(), 1u);
    EXPECT_EQ(snapshot->builds(), 1u);
    return snapshot;
  }

  /// The relation's snapshot replaced `before`, starts with no structure,
  /// and the query still agrees with the evaluator.
  void ExpectDropped(RelId rel,
                     const std::shared_ptr<const RelationSnapshot>& before) {
    std::shared_ptr<const RelationSnapshot> after = db_.Snapshot(rel);
    EXPECT_NE(after, before);
    EXPECT_TRUE(after->Structures().empty());
    EXPECT_EQ(after->builds(), 0u);
    EXPECT_TRUE(BagEquals(ExecuteBatched(query_, db_), Eval(query_, db_)));
  }

  Database db_;
  RelId r_ = 0;
  RelId s_ = 0;
  ExprPtr query_;
};

TEST_F(SnapshotMutationTest, UnchangedRelationKeepsItsSnapshot) {
  std::shared_ptr<const RelationSnapshot> first = WarmS();
  ExecuteBatched(query_, db_);
  EXPECT_EQ(db_.Snapshot(s_), first);
  EXPECT_EQ(first->builds(), 1u);  // the second run reused the table
}

TEST_F(SnapshotMutationTest, AddRowDropsDerivedStructures) {
  std::shared_ptr<const RelationSnapshot> before = WarmS();
  db_.AddRow(s_, {Value::Int(6), Value::Int(60)});
  ExpectDropped(s_, before);
}

TEST_F(SnapshotMutationTest, SetRowsDropsDerivedStructures) {
  std::shared_ptr<const RelationSnapshot> before = WarmS();
  db_.SetRows(s_, {Tuple({Value::Int(3), Value::Int(30)})});
  ExpectDropped(s_, before);
}

TEST_F(SnapshotMutationTest, MutableRelationDropsDerivedStructures) {
  std::shared_ptr<const RelationSnapshot> before = WarmS();
  db_.mutable_relation(s_)->AddRow({Value::Int(2), Value::Int(99)});
  ExpectDropped(s_, before);
}

TEST_F(SnapshotMutationTest, AddRelationKeepsOtherSnapshots) {
  std::shared_ptr<const RelationSnapshot> before = WarmS();
  ASSERT_TRUE(db_.AddRelation("T", {"x"}).ok());
  EXPECT_EQ(db_.Snapshot(s_), before);
  ExecuteBatched(query_, db_);
  EXPECT_EQ(before->builds(), 1u);  // the table outlived the registration
}

TEST_F(SnapshotMutationTest, CloneRelationSharesTheSourceSnapshot) {
  std::shared_ptr<const RelationSnapshot> before = WarmS();
  Result<RelId> copy = db_.CloneRelation(s_, "S2");
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(db_.Snapshot(s_), before);
  // The clone is a renaming: its own attributes over the same rows,
  // columns and structures, copied by nothing.
  std::shared_ptr<const RelationSnapshot> clone = db_.Snapshot(*copy);
  EXPECT_TRUE(clone->SharesBodyWith(*before));
  EXPECT_EQ(clone->relation().scheme().col(0), db_.Attr("S2", "c"));
  EXPECT_EQ(clone->relation().rows().data(), before->relation().rows().data());
  EXPECT_EQ(&clone->Column(1), &before->Column(1));
  EXPECT_EQ(clone->Structures().size(), 1u);
  EXPECT_EQ(db_.generation(*copy), db_.generation(s_));

  // A join on the clone's renamed key finds the source's table.
  ExprPtr on_clone =
      Expr::OuterJoin(Expr::Leaf(r_, db_), Expr::Leaf(*copy, db_),
                      EqCols(db_.Attr("R", "b"), db_.Attr("S2", "c")));
  ExecuteBatched(on_clone, db_);
  EXPECT_EQ(before->builds(), 1u);
  EXPECT_TRUE(
      BagEquals(ExecuteBatched(on_clone, db_), Eval(on_clone, db_)));

  // Writing the clone gives it rows and a snapshot of its own; the
  // source keeps its version.
  db_.AddRow(*copy, {Value::Int(9), Value::Int(90)});
  EXPECT_FALSE(db_.Snapshot(*copy)->SharesBodyWith(*before));
  EXPECT_EQ(db_.relation(*copy).NumRows(), 6u);
  EXPECT_EQ(db_.relation(s_).NumRows(), 5u);
  EXPECT_EQ(db_.Snapshot(s_), before);
  ExpectDropped(*copy, clone);
}

TEST_F(SnapshotMutationTest, HeldSnapshotStaysValidAcrossMutations) {
  std::shared_ptr<const RelationSnapshot> held = WarmS();
  const AttrId c = db_.Attr("S", "c");
  std::shared_ptr<const HashIndex> index = SnapshotHashIndex(*held, {c});
  std::shared_ptr<const TrieIndex> trie = SnapshotTrie(*held, {c});
  const ColumnVector& column = held->Column(1);
  ASSERT_EQ(held->relation().NumRows(), 5u);

  // Every mutation path, while the snapshot is held.
  db_.AddRow(s_, {Value::Int(7), Value::Int(70)});
  db_.mutable_relation(s_)->AddRow({Value::Int(8), Value::Int(80)});
  db_.SetRows(s_, {Tuple({Value::Int(100), Value::Int(1)})});
  ASSERT_TRUE(db_.AddRelation("T", {"x"}).ok());
  EXPECT_EQ(db_.relation(s_).NumRows(), 1u);

  // The held version is intact: rows, columns, statistics, structures.
  ASSERT_EQ(held->relation().NumRows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(held->relation().row(i).value(1),
              Value::Int(10 * static_cast<int64_t>(i)));
    EXPECT_EQ(column.ValueAt(i), Value::Int(10 * static_cast<int64_t>(i)));
  }
  EXPECT_EQ(held->stats()[0].distinct, 5.0);
  EXPECT_EQ(index->Probe({Value::Double(3)}).size(), 1u);
  EXPECT_TRUE(index->Probe({Value::Double(100)}).empty());
  ASSERT_EQ(trie->num_rows(), 5u);
  EXPECT_EQ(trie->row(4).value(0), Value::Int(4));
  EXPECT_EQ(held->Structures().size(), 3u);

  // The database's current version is the new one.
  std::shared_ptr<const RelationSnapshot> now = db_.Snapshot(s_);
  EXPECT_EQ(now->relation().NumRows(), 1u);
  EXPECT_EQ(now->stats()[0].distinct, 1.0);
  EXPECT_TRUE(BagEquals(ExecuteBatched(query_, db_), Eval(query_, db_)));
}

TEST(SnapshotTest, TrieCachedUntilMutation) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  db.AddRow(r, {Value::Int(1)});
  const std::vector<AttrId> levels = {db.Attr("R", "a")};

  // The trie reads its snapshot's rows, so its holder holds both.
  std::shared_ptr<const RelationSnapshot> held = db.Snapshot(r);
  std::shared_ptr<const TrieIndex> first = SnapshotTrie(*held, levels);
  EXPECT_EQ(SnapshotTrie(*db.Snapshot(r), levels), first);
  EXPECT_EQ(held->builds(), 1u);

  db.AddRow(r, {Value::Int(2)});
  std::shared_ptr<const TrieIndex> rebuilt =
      SnapshotTrie(*db.Snapshot(r), levels);
  EXPECT_NE(rebuilt, first);
  EXPECT_EQ(rebuilt->num_rows(), 2u);
  ASSERT_EQ(first->num_rows(), 1u);  // its holder keeps the old version
  EXPECT_EQ(first->row(0).value(0), Value::Int(1));
  EXPECT_EQ(held->relation().NumRows(), 1u);

  const std::vector<SnapshotStructureInfo> listed =
      db.Snapshot(r)->Structures();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].kind, "trie");
  EXPECT_EQ(listed[0].key_positions, std::vector<size_t>{0});
  EXPECT_EQ(listed[0].rows, 2u);
  EXPECT_GT(listed[0].bytes, 0u);
}

// --- cold and warm runs --------------------------------------------------

struct Case {
  std::string name;
  std::unique_ptr<Database> db;
  ExprPtr query;
  uint64_t base_reads = 0;  // expected, when the case pins it; else 0
};

// Triangle query over R0(a0,a1), R1, R2, forced onto leapfrog.
ExprPtr TriangleQuery(const Database& db) {
  PredicatePtr rs = EqCols(db.Attr("R0", "a1"), db.Attr("R1", "a0"));
  PredicatePtr st = EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0"));
  PredicatePtr tr = EqCols(db.Attr("R2", "a1"), db.Attr("R0", "a0"));
  return ForceMultiwayJoins(Expr::Join(
      Expr::Join(Expr::Leaf(0, db), Expr::Leaf(1, db), rs),
      Expr::Leaf(2, db), AndOf(st, tr)));
}

/// One of the cases; every call builds a fresh database with the same
/// contents.
Case MakeCase(int which) {
  Case c;
  if (which <= 1) {
    constexpr int kN = 500;
    c.db = MakeExample1Database(kN);
    const Database& db = *c.db;
    ExprPtr r1 = Expr::Leaf(db.Rel("R1"), db);
    ExprPtr r2 = Expr::Leaf(db.Rel("R2"), db);
    ExprPtr r3 = Expr::Leaf(db.Rel("R3"), db);
    PredicatePtr p12 = EqCols(db.Attr("R1", "k"), db.Attr("R2", "k"));
    PredicatePtr p23 = EqCols(db.Attr("R2", "fk"), db.Attr("R3", "k"));
    if (which == 0) {
      c.name = "example1-reordered";
      c.query = Expr::OuterJoin(Expr::Join(r1, r2, p12), r3, p23);
      c.base_reads = 3;
    } else {
      c.name = "example1-naive";
      c.query = Expr::Join(r1, Expr::OuterJoin(r2, r3, p23), p12);
      c.base_reads = 2 * kN + 1;
    }
  } else if (which == 2) {
    c.name = "triangle";
    Rng rng(24);
    RandomRowsOptions rows;
    rows.rows_min = 150;
    rows.rows_max = 200;
    rows.domain = 12;
    rows.null_prob = 0.05;
    c.db = MakeRandomDatabase(3, 2, rows, &rng);
    c.query = TriangleQuery(*c.db);
  } else {
    c.name = "bare-build-left-outer";
    c.db = std::make_unique<Database>();
    Database& db = *c.db;
    RelId r = *db.AddRelation("R", {"a", "b"});
    RelId s = *db.AddRelation("S", {"c", "d"});
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
      db.AddRow(r, {Value::Int(i), i % 11 == 0
                                       ? Value::Null()
                                       : Value::Int(static_cast<int64_t>(
                                             rng.Uniform(400)))});
    }
    for (int k = 0; k < 200; ++k) db.AddRow(s, {Value::Int(k), Value::Int(k)});
    c.query = Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db),
                              EqCols(db.Attr("R", "b"), db.Attr("S", "c")));
  }
  return c;
}
constexpr int kNumCases = 4;

struct Outcome {
  Relation result;
  std::string per_op;  // every operator's counters, pre-order
  uint64_t base_reads = 0;
};

Outcome Execute(const Case& c, int threads) {
  ParallelOptions options;
  options.threads = threads;
  options.morsel_rows = 256;
  BatchIteratorPtr root = BuildParallelBatchIterator(c.query, *c.db, options);
  Result<Relation> drained = DrainChecked(root.get(), nullptr);
  EXPECT_TRUE(drained.ok()) << drained.status().ToString();
  Outcome run;
  run.result = std::move(*drained);
  const PlanOpStats stats = SnapshotPlanStats(root.get());
  run.base_reads = BaseTuplesRead(stats);
  ForEachOp(stats, [&](const PlanOpStats& op, int depth) {
    run.per_op += std::to_string(depth) + " " + op.physical_name +
                  " left=" + std::to_string(op.stats.left_reads) +
                  " right=" + std::to_string(op.stats.right_reads) + " " +
                  op.stats.ToString() + "\n";
  });
  return run;
}

/// EXPLAIN ANALYZE with its wall-clock times blanked.
std::string AnalyzeText(const Case& c, int threads) {
  static const std::regex kTime("time=[0-9.]+ms");
  return std::regex_replace(
      ExplainAnalyze(c.query, *c.db, JoinAlgo::kAuto, threads).text, kTime,
      "time=?");
}

TEST(SnapshotReuseTest, ColdAndWarmRunsAgreeAndWarmBuildsNothing) {
  for (int which = 0; which < kNumCases; ++which) {
    for (int threads : {1, 2, 4}) {
      Case c = MakeCase(which);
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      ASSERT_EQ(TotalBuilds(*c.db), 0u);
      const Outcome cold = Execute(c, threads);
      const uint64_t built = TotalBuilds(*c.db);
      EXPECT_GT(built, 0u) << "the cold run kept no structure";
      const Outcome warm = Execute(c, threads);
      EXPECT_EQ(TotalBuilds(*c.db), built) << "the warm run built again";

      EXPECT_TRUE(BagEquals(cold.result, warm.result));
      EXPECT_TRUE(BagEquals(cold.result, Eval(c.query, *c.db)));
      EXPECT_EQ(cold.per_op, warm.per_op);
      EXPECT_EQ(cold.base_reads, warm.base_reads);
      if (c.base_reads != 0) EXPECT_EQ(warm.base_reads, c.base_reads);

      Case fresh = MakeCase(which);
      const std::string cold_text = AnalyzeText(fresh, threads);
      EXPECT_GT(TotalBuilds(*fresh.db), 0u);
      EXPECT_EQ(cold_text, AnalyzeText(fresh, threads));
    }
  }
}

TEST(SnapshotReuseTest, ConcurrentFirstUseBuildsEachStructureOnce) {
  for (int which = 0; which < kNumCases; ++which) {
    Case c = MakeCase(which);
    SCOPED_TRACE(c.name);
    const Relation expected = Eval(c.query, *c.db);
    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::vector<Relation> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        results[t] = ExecuteBatched(c.query, *c.db);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Relation& result : results) {
      EXPECT_TRUE(BagEquals(result, expected));
    }
    uint64_t structures = 0;
    for (RelId rel = 0; rel < c.db->num_relations(); ++rel) {
      std::shared_ptr<const RelationSnapshot> snapshot = c.db->Snapshot(rel);
      EXPECT_EQ(snapshot->builds(), snapshot->Structures().size());
      structures += snapshot->Structures().size();
    }
    EXPECT_GT(structures, 0u);
  }
}

// --- the evaluator's snapshot indexes ------------------------------------

TEST(SnapshotIndexTest, HashIndexBuiltOncePerKeyList) {
  auto db = MakeExample1Database(10);
  const AttrId r3k = db->Attr("R3", "k");
  std::shared_ptr<const RelationSnapshot> r3 = db->Snapshot(db->Rel("R3"));
  EXPECT_TRUE(r3->Structures().empty());
  std::shared_ptr<const HashIndex> index = SnapshotHashIndex(*r3, {r3k});
  EXPECT_EQ(index->num_keys(), 10u);
  EXPECT_EQ(index->num_rows(), 10u);
  // Asking again shares the one index rather than building another.
  EXPECT_EQ(SnapshotHashIndex(*r3, {r3k}), index);
  EXPECT_EQ(r3->builds(), 1u);
  // Another relation's keys live in its own snapshot.
  std::shared_ptr<const RelationSnapshot> r2 = db->Snapshot(db->Rel("R2"));
  SnapshotHashIndex(*r2, {db->Attr("R2", "fk")});
  EXPECT_EQ(r2->Structures().size(), 1u);
  EXPECT_EQ(r3->Structures().size(), 1u);
  EXPECT_EQ(r3->Structures()[0].kind, "hash-index");
}

TEST(SnapshotIndexTest, EvaluatorUsesIndexAndAgrees) {
  auto db = MakeExample1Database(200);
  ExprPtr plan = Expr::OuterJoin(
      Expr::Join(Expr::Leaf(db->Rel("R1"), *db),
                 Expr::Leaf(db->Rel("R2"), *db),
                 EqCols(db->Attr("R1", "k"), db->Attr("R2", "k"))),
      Expr::Leaf(db->Rel("R3"), *db),
      EqCols(db->Attr("R2", "fk"), db->Attr("R3", "k")));

  EvalOptions with_indexes;
  with_indexes.snapshot_indexes = true;
  EvalStats indexed_stats, plain_stats;
  Relation indexed = Eval(plan, *db, with_indexes, &indexed_stats);
  Relation plain = Eval(plan, *db, EvalOptions(), &plain_stats);
  EXPECT_TRUE(BagEquals(indexed, plain));
  EXPECT_EQ(db->Snapshot(db->Rel("R2"))->builds(), 1u);
  EXPECT_EQ(db->Snapshot(db->Rel("R3"))->builds(), 1u);
  // Example 1's counters are unchanged by the indexes.
  EXPECT_EQ(indexed_stats.base_tuples_read, 3u);
  EXPECT_EQ(plain_stats.base_tuples_read, 3u);

  // Reusing an index leaves Example 1's 3 unchanged and builds nothing.
  EvalStats reused_stats;
  EXPECT_TRUE(BagEquals(Eval(plan, *db, with_indexes, &reused_stats), plain));
  EXPECT_EQ(reused_stats.base_tuples_read, 3u);
  EXPECT_EQ(TotalBuilds(*db), 2u);
}

TEST(SnapshotIndexTest, IndexOnlyUsedWhenKeysMatch) {
  auto db = MakeExample1Database(10);
  const RelId r2 = db->Rel("R2");
  // An index on R2.fk does not serve a join on R2.k: the evaluator asks
  // for (and builds) the index on the join's own keys.
  SnapshotHashIndex(*db->Snapshot(r2), {db->Attr("R2", "fk")});
  ExprPtr join = Expr::Join(
      Expr::Leaf(db->Rel("R1"), *db), Expr::Leaf(r2, *db),
      EqCols(db->Attr("R1", "k"), db->Attr("R2", "k")));
  EvalOptions with_indexes;
  with_indexes.snapshot_indexes = true;
  EXPECT_TRUE(BagEquals(Eval(join, *db, with_indexes), Eval(join, *db)));
  std::vector<SnapshotStructureInfo> listed = db->Snapshot(r2)->Structures();
  ASSERT_EQ(listed.size(), 2u);
  // Keyed by position in R2(k, fk).
  EXPECT_EQ(listed[0].key_positions, std::vector<size_t>{0});
  EXPECT_EQ(listed[1].key_positions, std::vector<size_t>{1});
}

TEST(SnapshotIndexTest, RandomQueriesAgreeUnderIndexes) {
  Rng rng(2901);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(3));
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    EvalOptions with_indexes;
    with_indexes.snapshot_indexes = true;
    EvalStats indexed_stats, plain_stats;
    EXPECT_TRUE(BagEquals(Eval(tree, *q.db, with_indexes, &indexed_stats),
                          Eval(tree, *q.db, EvalOptions(), &plain_stats)))
        << tree->ToString();
    EXPECT_EQ(indexed_stats.base_tuples_read, plain_stats.base_tuples_read);
    EXPECT_EQ(indexed_stats.totals.ToString(), plain_stats.totals.ToString());
  }
}

TEST(SnapshotIndexTest, KernelLevelPrebuiltIndex) {
  Database db;
  RelId l = *db.AddRelation("L", {"x"});
  RelId r = *db.AddRelation("R", {"y"});
  db.AddRow(l, {Value::Int(1)});
  db.AddRow(l, {Value::Int(2)});
  db.AddRow(r, {Value::Double(1)});  // equals the int 1 under SQL
  std::shared_ptr<const HashIndex> index =
      SnapshotHashIndex(*db.Snapshot(r), {db.Attr("R", "y")});
  PredicatePtr pred = EqCols(db.Attr("L", "x"), db.Attr("R", "y"));
  KernelStats stats;
  Relation out = Join(db.relation(l), db.relation(r), pred, JoinAlgo::kAuto,
                      &stats, index.get());
  EXPECT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(stats.probes, 2u);  // one probe per left row
  // A nested-loop request ignores the index.
  Relation nl = Join(db.relation(l), db.relation(r), pred,
                     JoinAlgo::kNestedLoop, nullptr, index.get());
  EXPECT_TRUE(BagEquals(out, nl));
}

// Regression (from the former generation-stamped index cache): an index
// built before a mutation must never answer for the mutated relation.
TEST(SnapshotIndexTest, MutationRebuildsTheEvaluatorsIndex) {
  Database db;
  RelId l = *db.AddRelation("L", {"x"});
  RelId r = *db.AddRelation("R", {"y"});
  db.AddRow(l, {Value::Int(1)});
  db.AddRow(l, {Value::Int(2)});
  db.AddRow(r, {Value::Int(1)});
  const AttrId ry = db.Attr("R", "y");
  ExprPtr join = Expr::Join(Expr::Leaf(l, db), Expr::Leaf(r, db),
                            EqCols(db.Attr("L", "x"), ry));
  EvalOptions with_indexes;
  with_indexes.snapshot_indexes = true;
  EXPECT_EQ(Eval(join, db, with_indexes).NumRows(), 1u);
  std::shared_ptr<const HashIndex> old_index =
      SnapshotHashIndex(*db.Snapshot(r), {ry});
  EXPECT_EQ(old_index->num_keys(), 1u);

  db.AddRow(r, {Value::Int(2)});
  Relation out = Eval(join, db, with_indexes);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_TRUE(BagEquals(out, Eval(join, db)));
  EXPECT_EQ(SnapshotHashIndex(*db.Snapshot(r), {ry})->num_keys(), 2u);

  // mutable_relation hands out write access, so it too starts over.
  std::shared_ptr<const RelationSnapshot> before = db.Snapshot(r);
  db.mutable_relation(r);
  EXPECT_NE(db.Snapshot(r), before);
  EXPECT_TRUE(db.Snapshot(r)->Structures().empty());
}

}  // namespace
}  // namespace fro
