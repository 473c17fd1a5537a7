// exec_algebra: algebra text against one generated Database, planned
// through a warmed plan cache and feedback store, then built, drained and
// fed back exactly as lang::RunParsedQuery does. Results are materialized,
// never rendered, so execution dominates. The end-to-end loop is serial;
// the traced run also replays the parallelizable families morsel-parallel
// to measure exec/morsel.*.

#include <algorithm>

#include "algebra/eval.h"
#include "algebra/parse.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/morsel.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "workloads.h"

namespace fro::perfbench {
namespace {

// Sizes. The 200k-row pipelines follow bench_parallel; the structural
// families are sized so that the unoptimized reference (Eval over the
// given association, whose binary joins blow up quadratically on the
// triangle and the skewed chain) stays within a few hundred MB.
constexpr int kPipelineRows = 200000;
constexpr int kPipelineDomain = kPipelineRows / 10;
constexpr int kExample1Rows = 100000;
constexpr int kGojRows = 8000;
constexpr int kTriangleFan = 400;
constexpr int kChainHeavy = 400;
constexpr int kMispricedLive = 4000;
// Workers of the morsel-parallel replay in the traced run.
constexpr int kParallelThreads = 2;
// Share of the traced time spent on the morsel-parallel replay.
constexpr double kParallelTraceShare = 0.25;

struct Family {
  std::string name;
  std::string text;
  /// Slots per cycle: cheap families repeat so that every family takes a
  /// comparable share of a cycle's time.
  int weight = 1;
  /// Part of the parallelizable subset replayed morsel-parallel.
  bool parallel = false;
  Fingerprint reference;
  /// The serial execution's counters, which the parallel one must match.
  CycleCounts serial_counts;
};

std::vector<Family> MakeFamilies() {
  return {
      {"scan_filter", "sigma[R.b < 500](R)", 1, true, {}, {}},
      {"hash_join", "(sigma[R.b < 500](R) -[R.a = S.c] S)", 1, true, {}, {}},
      {"left_outer", "(sigma[R.b < 500](R) ->[R.a = S.c] S)", 1, true, {}, {}},
      {"anti_join", "(sigma[R.b < 500](R) |>[R.a = S.c] S)", 1, true, {}, {}},
      {"example1", "(E1 -[E1.k = E2.k] (E2 ->[E2.fk = E3.k] E3))", 1, false,
       {}, {}},
      {"goj", "(GX ->[GX.a = GY.b] (GY -[GY.c = GZ.d] GZ))", 1, true, {}, {}},
      {"triangle",
       "((T0 -[T0.a1 = T1.a0] T1) -[T1.a1 = T2.a0 and T2.a1 = T0.a0] T2)",
       6, false, {}, {}},
      {"skewed_chain", "((C0 -[C0.a1 = C1.a0] C1) -[C1.a1 = C2.a0] C2)", 8,
       false, {}, {}},
      {"mispriced_chain", "((M0 -[M0.a1 = M1.a0] M1) -[M1.a1 = M2.a0] M2)",
       4, false, {}, {}},
  };
}

Value Int(int64_t v) { return Value::Int(v); }

// The AGM-hard edge relation of bench_wcoj, {0}x[1..m] u [1..m]x{0} u
// {(0,0)}, plus m/4 seeded edges among [1..m] that close a few extra
// triangles.
void FillTriangleEdges(Database* db, RelId rel, int m, Rng* rng) {
  db->AddRow(rel, {Int(0), Int(0)});
  for (int j = 1; j <= m; ++j) {
    db->AddRow(rel, {Int(0), Int(j)});
    db->AddRow(rel, {Int(j), Int(0)});
  }
  for (int i = 0; i < m / 4; ++i) {
    db->AddRow(rel, {Int(1 + static_cast<int64_t>(rng->Uniform(m))),
                     Int(1 + static_cast<int64_t>(rng->Uniform(m)))});
  }
}

// bench_acyclic's skewed 3-chain: every binary order meets a ~K^2
// many-to-many intermediate that is entirely dangling; the semijoin
// program removes it first. `dead` offsets the dead key ranges.
void FillSkewedChain(Database* db, RelId c0, RelId c1, RelId c2, int k,
                     int64_t dead) {
  const int fan = 64, live = 2;
  for (int i = 1; i <= fan; ++i) {
    db->AddRow(c0, {Int(i), Int(0)});
    db->AddRow(c2, {Int(0), Int(i)});
  }
  for (int j = 1; j <= k; ++j) {
    db->AddRow(c0, {Int(j), Int(1)});
    db->AddRow(c2, {Int(2), Int(j)});
    db->AddRow(c1, {Int(1), Int(dead + j)});
    db->AddRow(c1, {Int(dead + k + j), Int(2)});
  }
  for (int i = 0; i < live; ++i) db->AddRow(c1, {Int(0), Int(0)});
}

// bench_feedback's mispriced chain: high distinct counts hide a heavy
// block from the static model, so the static plan meets a hidden
// heavy^2 intermediate until feedback corrects the estimate.
void FillMispricedChain(Database* db, RelId m0, RelId m1, RelId m2,
                        int heavy, int live) {
  for (int j = 0; j < heavy; ++j) {
    db->AddRow(m1, {Int(600000 + j), Int(0)});
    db->AddRow(m2, {Int(0), Int(j)});
  }
  for (int i = 0; i < live; ++i) {
    db->AddRow(m0, {Int(i), Int(100000 + i)});
    db->AddRow(m0, {Int(live + i), Int(100000 + i)});
    db->AddRow(m1, {Int(100000 + i), Int(1 + i)});
    db->AddRow(m2, {Int(1 + i), Int(i)});
  }
}

int CountSemijoins(const ExprPtr& expr) {
  if (expr == nullptr || expr->is_leaf()) return 0;
  int n = expr->kind() == OpKind::kSemijoin ? 1 : 0;
  if (expr->is_multiway()) {
    for (const ExprPtr& child : expr->mj_children()) n += CountSemijoins(child);
    return n;
  }
  return n + CountSemijoins(expr->left()) + CountSemijoins(expr->right());
}

bool HasMultiway(const ExprPtr& expr) {
  if (expr == nullptr || expr->is_leaf()) return false;
  if (expr->is_multiway()) return true;
  return HasMultiway(expr->left()) || HasMultiway(expr->right());
}

bool HasGoj(const ExprPtr& expr) {
  if (expr == nullptr || expr->is_leaf() || expr->is_multiway()) return false;
  if (expr->kind() == OpKind::kGoj) return true;
  return HasGoj(expr->left()) || HasGoj(expr->right());
}

// One executed query: its plan, result and operator snapshot.
struct Executed {
  OptimizeOutcome optimize;
  Relation relation;
  PlanOpStats stats;
  double q_error = 1;
};

class ExecAlgebraWorkload : public Workload {
 public:
  explicit ExecAlgebraWorkload(uint64_t seed) : seed_(seed) {}

  void Setup() override;
  void PrepareReferences(RunResult* result) override;
  void RunUntraced(double seconds, RunResult* result) override;
  void RunTraced(double seconds, Trace* trace, RunResult* result) override;

 private:
  // parse -> optimize (cache + feedback snapshot) -> build -> drain ->
  // snapshot -> observe, the RunParsedQuery sequence over algebra text.
  // With a trace, each step is a child span of the query root.
  Result<Executed> Execute(const Family& family, int threads, Trace* trace);
  void CheckResult(const Family& family, const Relation& relation,
                   RunResult* result) const;
  // Checks a morsel-parallel execution's result and its ExecStats parity:
  // it must count exactly what the serial execution of the plan did.
  void CheckParallel(const Family& family, const Executed& executed,
                     RunResult* result) const;
  // The parallelizable families at kParallelThreads, traced into their own
  // Trace, for the morsel operators' self times and ExecStats parity.
  void RunParallelTraced(double seconds, RunResult* result);

  uint64_t seed_;
  Database db_;
  std::vector<Family> families_;
  std::vector<size_t> cycle_;  // family index per slot
  LruPlanCache cache_{128};
  FeedbackStore feedback_;
};

void ExecAlgebraWorkload::Setup() {
  Rng rng(seed_);
  auto rel = [&](const char* name, std::vector<std::string> attrs) {
    return *db_.AddRelation(name, attrs);
  };
  const RelId r = rel("R", {"a", "b"});
  const RelId s = rel("S", {"c", "d"});
  for (int i = 0; i < kPipelineRows; ++i) {
    db_.AddRow(r, {Int(static_cast<int64_t>(rng.Uniform(kPipelineDomain))),
                   Int(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  // One S row per key for half the domain: the join is selective and the
  // outerjoin pads the other half.
  for (int k = 0; k < kPipelineDomain / 2; ++k) {
    db_.AddRow(s, {Int(k), Int(static_cast<int64_t>(rng.Uniform(1000)))});
  }

  const RelId e1 = rel("E1", {"k"});
  const RelId e2 = rel("E2", {"k", "fk"});
  const RelId e3 = rel("E3", {"k"});
  db_.AddRow(e1, {Int(static_cast<int64_t>(rng.Uniform(kExample1Rows)))});
  for (int i = 0; i < kExample1Rows; ++i) {
    db_.AddRow(e2, {Int(i), Int(i)});
    db_.AddRow(e3, {Int(i)});
  }

  // Duplicate-free X -> (Y - Z) (identity 15's precondition); about half
  // the Y rows have a Z partner.
  const RelId gx = rel("GX", {"a"});
  const RelId gy = rel("GY", {"b", "c"});
  const RelId gz = rel("GZ", {"d"});
  for (int i = 0; i < kGojRows; ++i) {
    db_.AddRow(gx, {Int(i)});
    db_.AddRow(gy, {Int(i), Int(kGojRows - 1 - i)});
    if (rng.Uniform(2) == 0) db_.AddRow(gz, {Int(i)});
  }

  for (const char* name : {"T0", "T1", "T2"}) {
    FillTriangleEdges(&db_, rel(name, {"a0", "a1"}), kTriangleFan, &rng);
  }
  const RelId c0 = rel("C0", {"a0", "a1"});
  const RelId c1 = rel("C1", {"a0", "a1"});
  const RelId c2 = rel("C2", {"a0", "a1"});
  FillSkewedChain(&db_, c0, c1, c2, kChainHeavy,
                  1000 + static_cast<int64_t>(rng.Uniform(1000)));
  const RelId m0 = rel("M0", {"a0", "a1"});
  const RelId m1 = rel("M1", {"a0", "a1"});
  const RelId m2 = rel("M2", {"a0", "a1"});
  FillMispricedChain(&db_, m0, m1, m2, kMispricedLive / 8, kMispricedLive);

  families_ = MakeFamilies();
  for (size_t f = 0; f < families_.size(); ++f) {
    for (int w = 0; w < families_[f].weight; ++w) cycle_.push_back(f);
  }
  // A seeded slot order; every cycle replays it.
  for (size_t i = cycle_.size(); i > 1; --i) {
    std::swap(cycle_[i - 1], cycle_[rng.Uniform(i)]);
  }

  // Warm until the plan cache and feedback store have converged: a whole
  // cycle of cache hits with no re-plan.
  for (int round = 0; round < 40; ++round) {
    const PlanCacheStats before = cache_.stats();
    for (size_t f : cycle_) {
      Result<Executed> executed = Execute(families_[f], 1, nullptr);
      FRO_CHECK(executed.ok()) << families_[f].name << ": "
                               << executed.status().ToString();
    }
    const PlanCacheStats after = cache_.stats();
    if (round >= 2 && after.misses == before.misses &&
        after.replans == before.replans) {
      break;
    }
  }
}

Result<Executed> ExecAlgebraWorkload::Execute(const Family& family,
                                              int threads, Trace* trace) {
  int optimize_span = 0;
  auto step = [&](const char* name, auto&& fn) {
    if (trace == nullptr) return fn();
    return trace->Time(name, 0, fn);
  };
  if (trace != nullptr) trace->BeginQuery("query");
  Executed out;
  Result<ExprPtr> query = step("algebra.parse", [&] {
    return ParseAlgebra(family.text, db_);
  });
  if (!query.ok()) {
    if (trace != nullptr) trace->EndQuery();
    return query.status();
  }
  OptimizeOptions options;
  options.plan_cache = &cache_;
  if (trace != nullptr) {
    options.pipeline = TimedDefaultPipeline(trace, &optimize_span);
  }
  Result<OptimizeOutcome> optimized = [&]() -> Result<OptimizeOutcome> {
    if (trace != nullptr) optimize_span = trace->Open("optimizer.optimize", 0);
    const CardinalityFeedback snapshot = feedback_.Snapshot();
    options.feedback = &snapshot;
    Result<OptimizeOutcome> o = Optimize(*query, db_, options);
    if (trace != nullptr) trace->Close(optimize_span);
    return o;
  }();
  if (!optimized.ok()) {
    if (trace != nullptr) trace->EndQuery();
    return optimized.status();
  }
  out.optimize = std::move(*optimized);
  BatchIteratorPtr root = step("exec.build", [&] {
    ParallelOptions par;
    par.threads = threads;
    BatchIteratorPtr built =
        BuildParallelBatchIterator(out.optimize.plan, db_, par);
    if (trace != nullptr) built->EnableTiming(true);
    return built;
  });
  Result<Relation> drained = step("exec.drain", [&] {
    return DrainChecked(root.get(), nullptr);
  });
  if (!drained.ok()) {
    if (trace != nullptr) trace->EndQuery();
    return drained.status();
  }
  out.relation = std::move(*drained);
  out.stats = step("exec.snapshot", [&] {
    return SnapshotPlanStats(root.get());
  });
  out.q_error = step("exec.feedback_observe", [&] {
    const double q =
        ObservePlanExecution(&feedback_, out.optimize.plan->hash(),
                             out.stats, out.optimize.op_estimates);
    cache_.RecordExecution((*query)->hash(), q);
    return q;
  });
  if (trace != nullptr) trace->EndQuery();
  return out;
}

void ExecAlgebraWorkload::CheckResult(const Family& family,
                                      const Relation& relation,
                                      RunResult* result) const {
  if (!(FingerprintOf(relation) == family.reference)) {
    result->Fail(family.name + ": result differs from the Eval reference");
  }
}

void ExecAlgebraWorkload::CheckParallel(const Family& family,
                                        const Executed& executed,
                                        RunResult* result) const {
  CheckResult(family, executed.relation, result);
  CycleCounts counts;
  counts.Add(executed.stats);
  if (!(counts == family.serial_counts)) {
    result->Fail(family.name + ": parallel counters " + counts.ToString() +
                 " != serial " + family.serial_counts.ToString());
  }
}

void ExecAlgebraWorkload::PrepareReferences(RunResult* result) {
  uint64_t input_rows = 0;
  for (RelId rel = 0; rel < db_.num_relations(); ++rel) {
    input_rows += db_.relation(rel).NumRows();
  }
  result->info["input_rows"] = std::to_string(input_rows);
  result->info["families"] = std::to_string(families_.size());
  result->info["slots_per_cycle"] = std::to_string(cycle_.size());
  result->info["parallel_threads"] = std::to_string(kParallelThreads);

  for (Family& family : families_) {
    ++result->attempted;
    Result<ExprPtr> query = ParseAlgebra(family.text, db_);
    FRO_CHECK(query.ok()) << family.name << ": "
                          << query.status().ToString();
    const Relation reference = Eval(*query, db_);
    family.reference = FingerprintOf(reference);
    result->info["rows." + family.name] = std::to_string(reference.NumRows());

    Result<Executed> executed = Execute(family, 1, nullptr);
    if (!executed.ok()) {
      result->Fail(family.name + ": " + executed.status().ToString());
      continue;
    }
    family.serial_counts.Add(executed->stats);
    if (!BagEquals(executed->relation, reference)) {
      result->Fail(family.name + ": optimized result is not bag-equal to "
                   "Eval of the unoptimized tree");
    }
    const ExprPtr& plan = executed->optimize.plan;
    // The structural rewrites each family exists to exercise must be in
    // the plan the warmed cache serves.
    if (family.name == "triangle" && !HasMultiway(plan)) {
      result->Fail("triangle: plan has no leapfrog multiway join");
    }
    if ((family.name == "skewed_chain" || family.name == "mispriced_chain") &&
        CountSemijoins(plan) == 0) {
      result->Fail(family.name + ": plan has no semijoin program");
    }
    if (family.name == "goj" && !HasGoj(plan)) {
      result->Fail("goj: plan was not left-deepened with a GOJ");
    }
    if (family.name == "example1") {
      // The paper's Example 1 counts, on Eval's ground-relation
      // accounting: the given order retrieves 2N+1 tuples, the plan the
      // optimizer chose retrieves 3.
      EvalStats naive, chosen;
      Eval(*query, db_, EvalOptions(), &naive);
      Eval(plan, db_, EvalOptions(), &chosen);
      result->info["example1.naive_base_reads"] =
          std::to_string(naive.base_tuples_read);
      result->info["example1.optimized_base_reads"] =
          std::to_string(chosen.base_tuples_read);
      if (naive.base_tuples_read != 2ull * kExample1Rows + 1 ||
          chosen.base_tuples_read != 3) {
        result->Fail("example1: base reads " +
                     std::to_string(naive.base_tuples_read) + " / " +
                     std::to_string(chosen.base_tuples_read) +
                     ", expected 2N+1 / 3");
      }
    }
    if (family.parallel) {
      ++result->attempted;
      Result<Executed> parallel = Execute(family, kParallelThreads, nullptr);
      if (!parallel.ok()) {
        result->Fail(family.name + ": " + parallel.status().ToString());
        continue;
      }
      CheckParallel(family, *parallel, result);
    }
  }
}

void ExecAlgebraWorkload::RunUntraced(double seconds, RunResult* result) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  result->busy_throughput = true;
  for (size_t slot = 0; NowNs() < deadline; ++slot) {
    const Family& family = families_[cycle_[slot % cycle_.size()]];
    const int64_t t0 = NowNs();
    Result<Executed> executed = Execute(family, 1, nullptr);
    const int64_t ns = NowNs() - t0;
    ++result->attempted;
    if (!executed.ok()) {
      result->Fail(family.name + ": " + executed.status().ToString());
      continue;
    }
    result->samples.push_back({t0 + ns, static_cast<double>(ns) / 1e3});
    CheckResult(family, executed->relation, result);
  }
}

void ExecAlgebraWorkload::RunTraced(double seconds, Trace* trace,
                                    RunResult* result) {
  const PlanCacheStats cache_before = cache_.stats();
  std::vector<CycleCounts> cycles;
  CycleCounts current;
  double max_q_error = 1;
  std::vector<std::vector<double>> per_family(families_.size());
  const int64_t deadline =
      NowNs() +
      static_cast<int64_t>(seconds * (1 - kParallelTraceShare) * 1e9);
  for (size_t slot = 0; NowNs() < deadline; ++slot) {
    const size_t f = cycle_[slot % cycle_.size()];
    const Family& family = families_[f];
    // Each query also runs untraced, alternately before and after the
    // traced run: the pairs give trace.overhead_frac and the per-family
    // latencies.
    auto untraced = [&] {
      const int64_t t0 = NowNs();
      Result<Executed> executed = Execute(family, 1, nullptr);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      ++result->attempted;
      if (!executed.ok()) {
        result->Fail(family.name + ": " + executed.status().ToString());
        return;
      }
      result->untraced_us.push_back(us);
      per_family[f].push_back(us);
      CheckResult(family, executed->relation, result);
    };
    if (slot % 2 == 0) untraced();
    Result<Executed> executed = Execute(family, 1, trace);
    if (slot % 2 == 1) untraced();
    ++result->attempted;
    if (!executed.ok()) {
      result->Fail(family.name + ": " + executed.status().ToString());
      continue;
    }
    result->traced_us.push_back(
        static_cast<double>(trace->root_ns().back()) / 1e3);
    CheckResult(family, executed->relation, result);
    AddOperatorSelfTimes(executed->stats, trace);
    current.Add(executed->stats);
    for (const PassStats& pass : executed->optimize.passes) {
      current.plans_considered += pass.plans_considered;
    }
    max_q_error = std::max(max_q_error, executed->q_error);
    if ((slot + 1) % cycle_.size() == 0) {
      cycles.push_back(current);
      current = CycleCounts();
    }
  }
  ReportCycleCounts(cycles, result);
  const PlanCacheStats cache_after = cache_.stats();
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t lookups = hits + cache_after.misses - cache_before.misses;
  result->layer["optimizer.plan_cache_hit_rate"] =
      lookups == 0 ? 0 : static_cast<double>(hits) / lookups;
  result->layer["optimizer.replans"] =
      static_cast<double>(cache_after.replans - cache_before.replans);
  result->layer["optimizer.max_q_error"] = max_q_error;
  for (size_t f = 0; f < families_.size(); ++f) {
    result->layer["family." + families_[f].name + ".query_us"] =
        Quantile(per_family[f], 0.5);
  }
  RunParallelTraced(seconds * kParallelTraceShare, result);
}

void ExecAlgebraWorkload::RunParallelTraced(double seconds,
                                            RunResult* result) {
  Trace trace;
  uint64_t queries = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t slot = 0; NowNs() < deadline; ++slot) {
    const Family& family = families_[cycle_[slot % cycle_.size()]];
    if (!family.parallel) continue;
    Result<Executed> executed = Execute(family, kParallelThreads, &trace);
    ++result->attempted;
    ++queries;
    if (!executed.ok()) {
      result->Fail(family.name + ": " + executed.status().ToString());
      continue;
    }
    CheckParallel(family, *executed, result);
    AddOperatorSelfTimes(executed->stats, &trace);
  }
  result->info["parallel_traced_queries"] = std::to_string(queries);
  for (const char* name :
       {"exec.op.MorselScan.self_us", "exec.op.Exchange.self_us"}) {
    result->layer[name] = trace.MeanUs(name);
  }
}

}  // namespace

std::vector<std::string> AlgebraFamilyNames() {
  std::vector<std::string> names;
  for (const Family& family : MakeFamilies()) names.push_back(family.name);
  return names;
}

std::unique_ptr<Workload> MakeExecAlgebra(uint64_t seed) {
  return std::make_unique<ExecAlgebraWorkload>(seed);
}

}  // namespace fro::perfbench
