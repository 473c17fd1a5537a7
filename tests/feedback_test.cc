// The cardinality-feedback loop (optimizer/feedback.h): store
// bookkeeping (EWMA, decay, bounded eviction), snapshots copied on
// first read (fixed afterwards, safe beside concurrent observers), the
// Q-error guard,
// estimator override precedence, plan-cache staleness marking, the
// re-plan-once protocol, generation-bump invalidation, and the
// re-planned mispriced chain over exact counters.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/build.h"
#include "exec/stats_view.h"
#include "optimizer/cardinality.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "plan_work.h"
#include "testing/datagen.h"

namespace fro {
namespace {

TEST(QErrorTest, ZeroCardinalityGuard) {
  // Both sides clamp to one row, so empty intermediates never divide by
  // zero and the error floor is exactly 1.
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(QError(8.0, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 0.5), 1.0);  // sub-row estimates clamp too
}

TEST(QErrorTest, SymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(4.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(2.0, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(QError(8.0, 2.0), 4.0);
}

TEST(FeedbackStoreTest, ObserveEwmaAndSnapshot) {
  FeedbackStore store;
  store.Observe(/*plan_hash=*/1, /*op_hash=*/100, /*est=*/10.0,
                /*actual=*/40.0);
  ASSERT_TRUE(store.CorrectedRows(100).has_value());
  EXPECT_DOUBLE_EQ(*store.CorrectedRows(100), 40.0);

  // Re-observation blends with alpha 0.5: 0.5*20 + 0.5*40.
  store.Observe(1, 100, 40.0, 20.0);
  EXPECT_DOUBLE_EQ(*store.CorrectedRows(100), 30.0);

  // A snapshot is a detached copy: later observations do not leak in.
  CardinalityFeedback snapshot = store.Snapshot();
  ASSERT_NE(snapshot.Lookup(100), nullptr);
  EXPECT_DOUBLE_EQ(*snapshot.Lookup(100), 30.0);
  EXPECT_EQ(snapshot.Lookup(999), nullptr);
  store.Observe(1, 100, 30.0, 100.0);
  EXPECT_DOUBLE_EQ(*snapshot.Lookup(100), 30.0);
}

// A snapshot copies the store on its first read, so a plan-cache hit,
// which never reads it, copies nothing; from then on it stays fixed
// whatever happens to the store.
TEST(FeedbackStoreTest, SnapshotIsTakenAtItsFirstRead) {
  FeedbackStore store;
  store.Observe(1, 100, 1.0, 10.0);
  CardinalityFeedback snapshot = store.Snapshot();
  store.Observe(1, 101, 1.0, 20.0);  // before the first read: seen
  ASSERT_NE(snapshot.Lookup(101), nullptr);
  EXPECT_DOUBLE_EQ(*snapshot.Lookup(101), 20.0);
  EXPECT_EQ(snapshot.size(), 2u);
  // A pending snapshot of the store itself merges without deadlocking.
  store.Merge(store.Snapshot());
  EXPECT_EQ(store.stats().merged, 2u);
}

TEST(FeedbackStoreTest, ReadSnapshotStaysFixedAcrossObserveEvictionClear) {
  FeedbackOptions options;
  options.capacity = 2;
  FeedbackStore store(options);
  store.Observe(1, 100, 1.0, 10.0);
  store.Observe(1, 101, 1.0, 20.0);
  const CardinalityFeedback snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // the first read takes the copy

  store.Observe(1, 100, 10.0, 50.0);  // the store's 100 moves to 30
  EXPECT_DOUBLE_EQ(*store.CorrectedRows(100), 30.0);
  store.Observe(1, 102, 1.0, 5.0);  // over capacity: one entry evicted
  EXPECT_GE(store.stats().evictions, 1u);
  store.Clear();
  EXPECT_EQ(store.stats().size, 0u);

  EXPECT_EQ(snapshot.size(), 2u);
  ASSERT_NE(snapshot.Lookup(100), nullptr);
  EXPECT_DOUBLE_EQ(*snapshot.Lookup(100), 10.0);
  ASSERT_NE(snapshot.Lookup(101), nullptr);
  EXPECT_DOUBLE_EQ(*snapshot.Lookup(101), 20.0);
  EXPECT_EQ(snapshot.Lookup(102), nullptr);
}

// Four threads observe, snapshot and look up at once (run under TSan in
// CI). Each thread observes only its own constant, so every snapshot,
// whichever observations it caught, reads that constant or nothing.
TEST(FeedbackStoreTest, ConcurrentObserveSnapshotLookup) {
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 50;
  FeedbackStore store;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &wrong, t] {
      const double rows = t + 1;
      for (uint64_t i = 0; i < 400; ++i) {
        const uint64_t op = 1000 * static_cast<uint64_t>(t) + i % kOpsPerThread;
        store.Observe(static_cast<uint64_t>(t), op, 1.0, rows);
        const CardinalityFeedback snapshot = store.Snapshot();
        const double* own = snapshot.Lookup(op);
        if (own == nullptr || *own != rows) ++wrong;
        const uint64_t other = (t + 1) % kThreads;
        const double* theirs =
            snapshot.Lookup(1000 * other + i % kOpsPerThread);
        if (theirs != nullptr && *theirs != static_cast<double>(other + 1)) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(store.stats().size, kThreads * kOpsPerThread);
}

TEST(FeedbackStoreTest, WeightDecaysWithoutReobservation) {
  FeedbackStore store;
  store.Observe(1, 100, 1.0, 1.0);
  const double fresh = *store.WeightOf(100);
  // Ten ticks of other subexpressions executing: 100's mass fades.
  for (uint64_t i = 0; i < 10; ++i) store.Observe(1, 200 + i, 1.0, 1.0);
  const double faded = *store.WeightOf(100);
  EXPECT_LT(faded, fresh);
  // Re-observation restores a full unit of fresh mass on top.
  store.Observe(1, 100, 1.0, 1.0);
  EXPECT_GT(*store.WeightOf(100), faded);
}

TEST(FeedbackStoreTest, BoundedEvictionDropsFadedEntry) {
  FeedbackOptions options;
  options.capacity = 4;
  FeedbackStore store(options);
  store.Observe(1, 100, 1.0, 1.0);  // oldest: decays while the rest land
  for (uint64_t i = 0; i < 4; ++i) store.Observe(1, 200 + i, 1.0, 1.0);
  const FeedbackStoreStats stats = store.stats();
  EXPECT_EQ(stats.size, 4u);
  EXPECT_GE(stats.evictions, 1u);
  // The faded entry lost the eviction contest; the live ones survive.
  EXPECT_FALSE(store.CorrectedRows(100).has_value());
  EXPECT_TRUE(store.CorrectedRows(203).has_value());
}

TEST(FeedbackStoreTest, MergeFoldsExternalSnapshot) {
  FeedbackStore a;
  a.Observe(1, 100, 1.0, 8.0);
  FeedbackStore b;
  b.Merge(a.Snapshot());
  ASSERT_TRUE(b.CorrectedRows(100).has_value());
  EXPECT_DOUBLE_EQ(*b.CorrectedRows(100), 8.0);
  EXPECT_EQ(b.stats().merged, 1u);
  // Merged corrections arrive estimate-free and count as exact.
  EXPECT_DOUBLE_EQ(b.stats().max_q_error, 1.0);
}

TEST(FeedbackStoreTest, QErrorHistogramBuckets) {
  FeedbackStore store;
  store.Observe(1, 100, 4.0, 4.0);   // q = 1 -> bucket [1,2)
  store.Observe(1, 101, 2.0, 16.0);  // q = 8 -> bucket [8,16)
  const FeedbackStoreStats stats = store.stats();
  EXPECT_EQ(stats.observations, 2u);
  EXPECT_DOUBLE_EQ(stats.max_q_error, 8.0);
  EXPECT_EQ(stats.q_error_hist[0], 1u);
  EXPECT_EQ(stats.q_error_hist[3], 1u);
}

class FeedbackPlanningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c"});
    a_ = db_.Attr("R", "a");
    c_ = db_.Attr("S", "c");
    db_.AddRow(r_, {Value::Int(1), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(3), Value::Int(20)});
    db_.AddRow(r_, {Value::Int(4), Value::Null()});
    db_.AddRow(s_, {Value::Int(1)});
    db_.AddRow(s_, {Value::Int(2)});
    query_ = Expr::Join(Expr::Leaf(r_, db_), Expr::Leaf(s_, db_),
                        EqCols(a_, c_));
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, c_;
  ExprPtr query_;
};

TEST_F(FeedbackPlanningTest, OverrideShadowsStaticModel) {
  CardinalityEstimator est(db_);
  ExprPtr leaf = Expr::Leaf(r_, db_);
  EXPECT_DOUBLE_EQ(est.Estimate(leaf), 4.0);
  EXPECT_DOUBLE_EQ(est.Estimate(query_), 2.0);

  // A correction shadows everything below it — including the exact base
  // row count a leaf would otherwise report.
  CardinalityFeedback feedback;
  feedback.Set(leaf->hash(), 99.0);
  est.set_feedback(&feedback);
  EXPECT_DOUBLE_EQ(est.Estimate(leaf), 99.0);
  EXPECT_TRUE(est.IsCorrected(leaf));
  EXPECT_FALSE(est.IsCorrected(query_));
  // The uncorrected parent re-derives from the corrected child:
  // 99 * 2 * 1/4.
  EXPECT_DOUBLE_EQ(est.Estimate(query_), 99.0 * 2.0 * 0.25);

  // Detaching restores the static model.
  est.set_feedback(nullptr);
  EXPECT_DOUBLE_EQ(est.Estimate(leaf), 4.0);
  EXPECT_FALSE(est.IsCorrected(leaf));
}

TEST_F(FeedbackPlanningTest, ObservePlanExecutionClosesTheLoop) {
  CardinalityEstimator est(db_);
  const OpEstimates estimates = CollectOpEstimates(query_, est);
  EXPECT_NE(estimates.Find(query_->hash()), nullptr);

  BatchIteratorPtr root = BuildBatchIterator(query_, db_);
  DrainBatches(root.get());
  FeedbackStore store;
  const double q = ObservePlanExecution(&store, query_->hash(),
                                        SnapshotPlanStats(root.get()),
                                        estimates);
  // R.a = {1,2,3,4} joins S.c = {1,2}: exactly 2 rows, which is also the
  // static estimate — the loop reports a perfect execution.
  EXPECT_DOUBLE_EQ(q, 1.0);
  ASSERT_TRUE(store.CorrectedRows(query_->hash()).has_value());
  EXPECT_DOUBLE_EQ(*store.CorrectedRows(query_->hash()), 2.0);
}

TEST_F(FeedbackPlanningTest, StalenessMarkGrantsExactlyOneClaim) {
  LruPlanCache cache(4, /*q_error_threshold=*/2.0);
  CachedPlan plan;
  plan.db_generation = 7;
  cache.Insert(42, plan);

  // First execution seeds the running Q-error directly; 10 > 2 marks.
  cache.RecordExecution(42, 10.0);
  ASSERT_TRUE(cache.RunningQError(42).has_value());
  EXPECT_DOUBLE_EQ(*cache.RunningQError(42), 10.0);

  bool claimed = false;
  EXPECT_FALSE(cache.LookupForPlanning(42, 7, &claimed).has_value());
  EXPECT_TRUE(claimed);
  // While the claim is outstanding, everyone else keeps the old plan.
  bool second_claim = true;
  EXPECT_TRUE(cache.LookupForPlanning(42, 7, &second_claim).has_value());
  EXPECT_FALSE(second_claim);
  // The claimant's Insert resolves the claim and resets the error state.
  cache.Insert(42, plan);
  bool third_claim = true;
  EXPECT_TRUE(cache.LookupForPlanning(42, 7, &third_claim).has_value());
  EXPECT_FALSE(third_claim);
  EXPECT_FALSE(cache.RunningQError(42).has_value());

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_marks, 1u);
  EXPECT_EQ(stats.replans, 1u);
}

TEST_F(FeedbackPlanningTest, EwmaSmoothsOneOffSpikes) {
  LruPlanCache cache(4, /*q_error_threshold=*/4.0);
  cache.Insert(42, CachedPlan{});
  cache.RecordExecution(42, 1.0);
  cache.RecordExecution(42, 6.0);  // EWMA 3.5: under the threshold
  bool claimed = false;
  EXPECT_TRUE(cache.LookupForPlanning(42, 0, &claimed).has_value());
  EXPECT_FALSE(claimed);
  cache.RecordExecution(42, 6.0);  // EWMA 4.75: sustained drift marks
  EXPECT_FALSE(cache.LookupForPlanning(42, 0, &claimed).has_value());
  EXPECT_TRUE(claimed);
}

TEST_F(FeedbackPlanningTest, GenerationMismatchInvalidates) {
  LruPlanCache cache(4);
  CachedPlan plan;
  plan.db_generation = 7;
  cache.Insert(42, plan);
  bool claimed = false;
  EXPECT_TRUE(cache.LookupForPlanning(42, 7, &claimed).has_value());
  // The data moved on: the entry is dropped, not served.
  EXPECT_FALSE(cache.LookupForPlanning(42, 8, &claimed).has_value());
  EXPECT_FALSE(claimed);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, 0u);
}

TEST_F(FeedbackPlanningTest, DatabaseGenerationStampTracksMutation) {
  const uint64_t before = DatabaseGenerationStamp(db_);
  EXPECT_EQ(DatabaseGenerationStamp(db_), before);  // pure
  db_.AddRow(s_, {Value::Int(3)});
  EXPECT_NE(DatabaseGenerationStamp(db_), before);
}

TEST_F(FeedbackPlanningTest, OptimizeReplansOnceThenConverges) {
  LruPlanCache cache(4, /*q_error_threshold=*/4.0);
  OptimizeOptions opt;
  opt.plan_cache = &cache;
  Result<OptimizeOutcome> first = Optimize(query_, db_, opt);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_FALSE(first->replanned);
  EXPECT_FALSE(first->op_estimates.empty());

  // Executions drift far past the threshold: the entry goes stale.
  cache.RecordExecution(query_->hash(), 64.0);
  cache.RecordExecution(query_->hash(), 64.0);

  // The next optimization claims the (single) re-plan and re-runs the
  // pipeline with corrections applied.
  FeedbackStore store;
  store.Observe(first->plan->hash(), query_->hash(), 2.0, 128.0);
  const CardinalityFeedback corrected = store.Snapshot();
  opt.feedback = &corrected;
  Result<OptimizeOutcome> second = Optimize(query_, db_, opt);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_TRUE(second->replanned);
  // The re-planned entry's estimates are the corrected ones, so stable
  // actuals now measure a low Q-error ...
  const double* est = second->op_estimates.Find(query_->hash());
  ASSERT_NE(est, nullptr);
  EXPECT_DOUBLE_EQ(*est, 128.0);
  // ... and accurate executions leave the entry fresh: no thrashing.
  cache.RecordExecution(query_->hash(), 1.1);
  Result<OptimizeOutcome> third = Optimize(query_, db_, opt);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_FALSE(third->replanned);
  EXPECT_EQ(cache.stats().replans, 1u);
}

TEST_F(FeedbackPlanningTest, OptimizeInvalidatesOnDataChange) {
  LruPlanCache cache(4);
  OptimizeOptions opt;
  opt.plan_cache = &cache;
  ASSERT_TRUE(Optimize(query_, db_, opt).ok());
  Result<OptimizeOutcome> warm = Optimize(query_, db_, opt);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);

  // New data: the cached plan (and the feedback it was chosen with) was
  // measured against rows that no longer exist.
  db_.AddRow(s_, {Value::Int(4)});
  Result<OptimizeOutcome> cold = Optimize(query_, db_, opt);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // And the re-inserted entry serves hits at the new generation.
  Result<OptimizeOutcome> rewarm = Optimize(query_, db_, opt);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm->cache_hit);
}

// --- The re-planned mispriced chain over exact counters -----------------

// The chain R1 - R2 - R3 (R1.a1 = R2.a0, R2.a1 = R3.a0), sized so every
// distinct count tells the static model the joins are harmless: a heavy
// block of `live / 8` rows (600000 + j, 0) in R2 meets its partner
// (0, j) in R3 under `live` singleton filler keys. The static gate then
// keeps the binary plan, whose R2 >< R3 holds heavy^2 rows that all die
// toward R1; the semijoin program reduces R2 by R1 first.
struct MispricedChain {
  explicit MispricedChain(int live) {
    const RelId r1 = *db.AddRelation("R1", {"a0", "a1"});
    const RelId r2 = *db.AddRelation("R2", {"a0", "a1"});
    const RelId r3 = *db.AddRelation("R3", {"a0", "a1"});
    for (int j = 0; j < live / 8; ++j) {
      db.AddRow(r2, {Value::Int(600000 + j), Value::Int(0)});
      db.AddRow(r3, {Value::Int(0), Value::Int(j)});
    }
    for (int i = 0; i < live; ++i) {
      db.AddRow(r1, {Value::Int(i), Value::Int(100000 + i)});
      db.AddRow(r1, {Value::Int(live + i), Value::Int(100000 + i)});
      db.AddRow(r2, {Value::Int(100000 + i), Value::Int(1 + i)});
      db.AddRow(r3, {Value::Int(1 + i), Value::Int(i)});
    }
    query = Expr::Join(
        Expr::Join(Expr::Leaf(r1, db), Expr::Leaf(r2, db),
                   EqCols(db.Attr("R1", "a1"), db.Attr("R2", "a0"))),
        Expr::Leaf(r3, db),
        EqCols(db.Attr("R2", "a1"), db.Attr("R3", "a0")));
  }

  Database db;
  ExprPtr query;
};

TEST(FeedbackReplanTest, CorrectedPlanBeatsTheStaticPlan) {
  // Largest intermediate, corrected vs static: 2,000 vs 64,500 rows at
  // live = 2000 and 4,000 vs 254,000 at 4000. Work: 37,000 vs 218,000
  // and 74,000 vs 811,000.
  for (const int live : {2000, 4000}) {
    SCOPED_TRACE("live = " + std::to_string(live));
    MispricedChain chain(live);
    const Database& db = chain.db;
    // The loop as a server session drives it. A Q-error threshold below
    // the floor of 1.0 makes the first execution mark the entry stale.
    LruPlanCache cache(4, /*q_error_threshold=*/0.5);
    OptimizeOptions opt;
    opt.plan_cache = &cache;
    Result<OptimizeOutcome> cold = Optimize(chain.query, db, opt);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ASSERT_EQ(CountSemijoins(cold->plan), 0) << "the static gate fired";

    BatchIteratorPtr executed = BuildBatchIterator(cold->plan, db);
    const uint64_t output = DrainBatches(executed.get()).NumRows();
    FeedbackStore store;
    const double q =
        ObservePlanExecution(&store, cold->plan->hash(),
                             SnapshotPlanStats(executed.get()),
                             cold->op_estimates);
    cache.RecordExecution(chain.query->hash(), q);

    const CardinalityFeedback corrected = store.Snapshot();
    opt.feedback = &corrected;
    Result<OptimizeOutcome> warm = Optimize(chain.query, db, opt);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_FALSE(warm->cache_hit);
    EXPECT_TRUE(warm->replanned);
    ASSERT_GT(CountSemijoins(warm->plan), 0)
        << "the corrected gate declined";
    EXPECT_EQ(cache.stats().replans, 1u);

    const uint64_t input = TotalRows(db);
    EXPECT_LE(LargestIntermediate(warm->plan, db), input + output);
    EXPECT_GT(LargestIntermediate(cold->plan, db), input + output);
    EXPECT_LT(PlanWork(warm->plan, db), PlanWork(cold->plan, db));
  }
}

}  // namespace
}  // namespace fro
