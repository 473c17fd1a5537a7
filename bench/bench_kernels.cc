// Experiment E12 — operator kernel throughput: nested-loop vs hash for
// join, outerjoin, antijoin, and semijoin across input sizes and match
// rates. Substrate validation for E1/E8.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "relational/database.h"
#include "relational/index.h"
#include "relational/ops.h"

namespace fro {
namespace {

struct Fixture {
  std::unique_ptr<Database> db;
  PredicatePtr pred;
  RelId left, right;
};

Fixture MakeFixture(int rows, int domain) {
  Fixture f;
  f.db = std::make_unique<Database>();
  f.left = *f.db->AddRelation("L", {"a", "b"});
  f.right = *f.db->AddRelation("R", {"c", "d"});
  Rng rng(7);
  for (int i = 0; i < rows; ++i) {
    f.db->AddRow(f.left, {Value::Int(rng.UniformInt(0, domain - 1)),
                          Value::Int(i)});
    f.db->AddRow(f.right, {Value::Int(rng.UniformInt(0, domain - 1)),
                           Value::Int(i)});
  }
  f.pred = EqCols(f.db->Attr("L", "a"), f.db->Attr("R", "c"));
  return f;
}

template <Relation (*Kernel)(const Relation&, const Relation&,
                             const PredicatePtr&, JoinAlgo, KernelStats*,
                             const HashIndex*)>
void RunKernel(benchmark::State& state, JoinAlgo algo) {
  const int rows = static_cast<int>(state.range(0));
  Fixture f = MakeFixture(rows, /*domain=*/rows);  // ~1 match per row
  const Relation& left = f.db->relation(f.left);
  const Relation& right = f.db->relation(f.right);
  for (auto _ : state) {
    Relation out = Kernel(left, right, f.pred, algo, nullptr, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_Join_NestedLoop(benchmark::State& s) {
  RunKernel<Join>(s, JoinAlgo::kNestedLoop);
}
void BM_Join_Hash(benchmark::State& s) { RunKernel<Join>(s, JoinAlgo::kHash); }
void BM_OuterJoin_NestedLoop(benchmark::State& s) {
  RunKernel<LeftOuterJoin>(s, JoinAlgo::kNestedLoop);
}
void BM_OuterJoin_Hash(benchmark::State& s) {
  RunKernel<LeftOuterJoin>(s, JoinAlgo::kHash);
}
void BM_Antijoin_NestedLoop(benchmark::State& s) {
  RunKernel<Antijoin>(s, JoinAlgo::kNestedLoop);
}
void BM_Antijoin_Hash(benchmark::State& s) {
  RunKernel<Antijoin>(s, JoinAlgo::kHash);
}
void BM_Semijoin_Hash(benchmark::State& s) {
  RunKernel<Semijoin>(s, JoinAlgo::kHash);
}

BENCHMARK(BM_Join_NestedLoop)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMicrosecond);
BENCHMARK(BM_Join_Hash)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OuterJoin_NestedLoop)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OuterJoin_Hash)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Antijoin_NestedLoop)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Antijoin_Hash)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Semijoin_Hash)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

// High-fanout join: small key domain, quadratic-ish output.
void BM_Join_Hash_HighFanout(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Fixture f = MakeFixture(rows, /*domain=*/16);
  const Relation& left = f.db->relation(f.left);
  const Relation& right = f.db->relation(f.right);
  for (auto _ : state) {
    Relation out = Join(left, right, f.pred, JoinAlgo::kHash, nullptr);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Join_Hash_HighFanout)->Arg(512)->Arg(2048)->Unit(
    benchmark::kMicrosecond);

// Restriction and projection throughput.
void BM_Restrict(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)), 100);
  const Relation& left = f.db->relation(f.left);
  PredicatePtr pred =
      CmpLit(CmpOp::kLt, f.db->Attr("L", "a"), Value::Int(50));
  for (auto _ : state) {
    Relation out = Restrict(left, pred, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Restrict)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_ProjectDedup(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)), 64);
  const Relation& left = f.db->relation(f.left);
  std::vector<AttrId> cols = {f.db->Attr("L", "a")};
  for (auto _ : state) {
    Relation out = Project(left, cols, /*dedup=*/true, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProjectDedup)->Arg(4096)->Arg(32768)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace fro

BENCHMARK_MAIN();
