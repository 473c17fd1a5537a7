// Morsel-driven parallel scaling on the batch executor (exec/morsel.h):
// the same 200k-row pipelines bench_batch.cc measures — scan -> filter,
// scan -> filter -> hash join, and a null-padding left outerjoin — each
// drained at 1, 2, 4, and 8 workers through BuildParallelBatchIterator.
// Every worker count is checksum-cross-checked against the serial run,
// so the numbers only count agreeing executions.
//
// Emits a JSON object {"hardware_concurrency": N, "results": [...]} on
// stdout; each result row is {pipeline, rows, out_rows, workers, ns,
// min_ns, max_ns, mtps, speedup_vs_1}, where ns is the median of the
// repetitions and min/max record the observed spread. hardware_concurrency is recorded
// because speedup is bounded by the cores actually present: on a
// single-core host every worker count degenerates to ~1x and the
// report documents why. `--smoke` lowers the repetition count (never
// below 5) but keeps the 200k-tuple scale.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "algebra/expr.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/build.h"
#include "exec/morsel.h"
#include "relational/predicate.h"

namespace fro {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median wall time of the repetitions with the observed min/max
/// spread (see bench_batch.cc for the rationale).
struct Timing {
  int64_t median_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
};

struct Report {
  const char* pipeline;
  size_t rows;
  size_t out_rows;
  int workers;
  Timing timing;
  int64_t baseline_ns;  // the workers=1 median for the same pipeline
};

struct Checksum {
  uint64_t count = 0;
  int64_t sum = 0;

  void Consume(const Tuple& tuple) {
    ++count;
    const Value& v = tuple.value(0);
    if (v.kind() == Value::Kind::kInt) sum += v.AsInt();
  }
  bool operator==(const Checksum& other) const {
    return count == other.count && sum == other.sum;
  }
};

// Median-of-`reps` wall time with min/max spread; every worker count
// gets identical treatment.
template <typename RunOnce>
Timing MeasureReps(int reps, RunOnce&& run_once) {
  std::vector<int64_t> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const int64_t start = NowNs();
    run_once();
    samples.push_back(NowNs() - start);
  }
  std::sort(samples.begin(), samples.end());
  Timing t;
  const size_t n = samples.size();
  t.median_ns = n % 2 == 1 ? samples[n / 2]
                           : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  t.min_ns = samples.front();
  t.max_ns = samples.back();
  return t;
}

Checksum DrainToChecksum(BatchIterator* root) {
  Checksum checksum;
  root->Open();
  TupleBatch batch;
  while (root->NextBatch(&batch)) {
    const size_t n = batch.size();
    for (size_t i = 0; i < n; ++i) checksum.Consume(batch.selected(i));
  }
  root->Close();
  return checksum;
}

void Measure(const char* name, const ExprPtr& expr, const Database& db,
             size_t base_rows, int reps, std::vector<Report>* reports) {
  Checksum serial_sum;
  int64_t baseline_ns = 0;
  for (const int workers : {1, 2, 4, 8}) {
    ParallelOptions par;
    par.threads = workers;
    Checksum sum;
    const Timing timing = MeasureReps(reps, [&] {
      BatchIteratorPtr root = BuildParallelBatchIterator(expr, db, par);
      sum = DrainToChecksum(root.get());
    });
    if (workers == 1) {
      serial_sum = sum;
      baseline_ns = timing.median_ns;
    } else {
      FRO_CHECK(sum == serial_sum)
          << name << " diverges at " << workers << " workers";
    }
    reports->push_back(
        {name, base_rows, sum.count, workers, timing, baseline_ns});
  }
}

void Emit(const std::vector<Report>& reports) {
  std::printf("{\"hardware_concurrency\": %u,\n \"results\": [\n",
              std::thread::hardware_concurrency());
  for (size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i];
    const double mtps = static_cast<double>(r.rows) * 1e3 /
                        static_cast<double>(r.timing.median_ns);
    std::printf(
        "  {\"pipeline\": \"%s\", \"rows\": %zu, \"out_rows\": %zu, "
        "\"workers\": %d, \"ns\": %lld, \"min_ns\": %lld, "
        "\"max_ns\": %lld, \"mtps\": %.2f, \"speedup_vs_1\": %.2f}%s\n",
        r.pipeline, r.rows, r.out_rows, r.workers,
        static_cast<long long>(r.timing.median_ns),
        static_cast<long long>(r.timing.min_ns),
        static_cast<long long>(r.timing.max_ns), mtps,
        static_cast<double>(r.baseline_ns) /
            static_cast<double>(r.timing.median_ns),
        i + 1 < reports.size() ? "," : "");
  }
  std::printf("]}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const size_t kRows = 200000;
  const int reps = smoke ? 5 : 11;  // median needs >= 5 samples

  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  RelId s = *db.AddRelation("S", {"c", "d"});
  AttrId a = db.Attr("R", "a");
  AttrId b = db.Attr("R", "b");
  AttrId c = db.Attr("S", "c");
  Rng rng(1990);
  const int64_t kDomain = static_cast<int64_t>(kRows) / 10;
  for (size_t i = 0; i < kRows; ++i) {
    db.AddRow(r, {Value::Int(static_cast<int64_t>(
                      rng.Uniform(static_cast<uint64_t>(kDomain)))),
                  Value::Int(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  // Build side: one row per key for half the domain, so the join is
  // selective and the outerjoin pads the other half with nulls.
  for (int64_t k = 0; k < kDomain / 2; ++k) {
    db.AddRow(s, {Value::Int(k), Value::Int(k)});
  }

  auto leaf_r = [&] { return Expr::Leaf(r, db); };
  auto leaf_s = [&] { return Expr::Leaf(s, db); };
  PredicatePtr half = CmpLit(CmpOp::kLt, b, Value::Int(500));
  PredicatePtr keys = EqCols(a, c);

  std::vector<Report> reports;
  Measure("scan_filter", Expr::Restrict(leaf_r(), half), db, kRows, reps,
          &reports);
  Measure("scan_filter_hashjoin",
          Expr::Join(Expr::Restrict(leaf_r(), half), leaf_s(), keys), db,
          kRows, reps, &reports);
  Measure("scan_filter_leftouter",
          Expr::OuterJoin(Expr::Restrict(leaf_r(), half), leaf_s(), keys,
                          /*preserves_left=*/true),
          db, kRows, reps, &reports);
  Emit(reports);
  return 0;
}

}  // namespace
}  // namespace fro

int main(int argc, char** argv) { return fro::Main(argc, argv); }
