// Batch executor throughput on the pipelines it was built for: scan ->
// filter and scan -> filter -> hash join over 100k+ base tuples, plus a
// null-padding left outerjoin.
//
// Each pipeline is measured under two consumers:
//   * stream — the pipeline is drained into a checksum (count + int
//     column sum), so the numbers measure the executor itself;
//   * materialize — DrainBatches into a Relation, the end-to-end cost a
//     caller keeping the full result pays (one allocation per emitted
//     row), reported separately.
//
// Emits a JSON array of {pipeline, rows, out_rows, batch_ns, batch_mtps,
// batch_materialize_ns} rows on stdout. Every *_ns field is the median
// of the repetitions, with the observed spread alongside as *_min_ns /
// *_max_ns — a run whose median sits far from its min was noisy.
// `--smoke` lowers the repetition count (never below 5) but keeps the
// 100k-tuple scale.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/build.h"
#include "relational/predicate.h"

namespace fro {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One measured quantity: the median of the repetitions plus the
/// observed min/max spread. The median is the headline number (robust
/// to one-sided scheduler noise without the min's bias toward
/// best-case cache luck); the spread qualifies it.
struct Timing {
  int64_t median_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
};

struct Report {
  const char* pipeline;
  size_t rows;
  size_t out_rows;
  Timing batch;
  Timing batch_materialize;
};

struct Checksum {
  uint64_t count = 0;
  int64_t sum = 0;
};

/// The streaming consumer reads column 0 columnar-wise: a row count plus
/// the sum of the int values, without forcing a columnar join output
/// through row materialization (which is exactly the cost the streaming
/// numbers exist to exclude — see file comment).
void ConsumeBatch(const TupleBatch& batch, Checksum* sum) {
  const size_t n = batch.size();
  if (n == 0) return;
  sum->count += n;
  size_t off = 0;
  const ColumnVector* col = batch.Column(0, &off);
  switch (col->tag()) {
    case ColumnVector::Tag::kEmpty:
      break;  // all null: contributes count only
    case ColumnVector::Tag::kInt: {
      const int64_t* v = col->ints();
      const uint8_t* nm = col->null_mask();
      for (size_t i = 0; i < n; ++i) {
        const size_t r = off + batch.sel_index(i);
        if (nm[r] == 0) sum->sum += v[r];
      }
      break;
    }
    case ColumnVector::Tag::kDouble:
      break;  // doubles don't feed the int checksum
    case ColumnVector::Tag::kGeneric: {
      const Value* v = col->generic();
      for (size_t i = 0; i < n; ++i) {
        const size_t r = off + batch.sel_index(i);
        if (v[r].kind() == Value::Kind::kInt) sum->sum += v[r].AsInt();
      }
      break;
    }
  }
}

// Median-of-`reps` wall time with min/max spread.
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

Report Measure(const char* name, const ExprPtr& expr, const Database& db,
               size_t base_rows, int reps) {
  Report report;
  report.pipeline = name;
  report.rows = base_rows;

  // Streaming consumer: executor throughput without the materialization
  // sink. The row count doubles as a result cross-check.
  Checksum batch_sum;
  report.batch = MeasureReps(reps, [&] {
    BatchIteratorPtr root = BuildBatchIterator(expr, db);
    batch_sum = Checksum();
    root->Open();
    TupleBatch batch;
    while (root->NextBatch(&batch)) ConsumeBatch(batch, &batch_sum);
    root->Close();
  });
  report.out_rows = batch_sum.count;

  // Materializing consumer: the end-to-end drain cost. One untimed drain
  // first grows the heap to this pipeline's size, and its result is
  // released before timing, so the first timed rep starts, like the
  // BENCH_PR7.json baseline's did, on a warm heap with no previous
  // result to destroy; later reps also pay for replacing the previous
  // result.
  Relation batch_out(Scheme{});
  auto drain = [&] {
    BatchIteratorPtr root = BuildBatchIterator(expr, db);
    batch_out = DrainBatches(root.get());
  };
  drain();
  batch_out = Relation(Scheme{});
  report.batch_materialize = MeasureReps(reps, drain);
  FRO_CHECK_EQ(batch_out.NumRows(), batch_sum.count)
      << "stream and materialize disagree on " << name;
  return report;
}

void Emit(const std::vector<Report>& reports) {
  std::printf("[\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i];
    const double batch_mtps = static_cast<double>(r.rows) * 1e3 /
                              static_cast<double>(r.batch.median_ns);
    std::printf(
        "  {\"pipeline\": \"%s\", \"rows\": %zu, \"out_rows\": %zu, "
        "\"batch_ns\": %lld, \"batch_min_ns\": %lld, \"batch_max_ns\": %lld, "
        "\"batch_mtps\": %.2f, "
        "\"batch_materialize_ns\": %lld, \"batch_materialize_min_ns\": %lld, "
        "\"batch_materialize_max_ns\": %lld}%s\n",
        r.pipeline, r.rows, r.out_rows,
        static_cast<long long>(r.batch.median_ns),
        static_cast<long long>(r.batch.min_ns),
        static_cast<long long>(r.batch.max_ns), batch_mtps,
        static_cast<long long>(r.batch_materialize.median_ns),
        static_cast<long long>(r.batch_materialize.min_ns),
        static_cast<long long>(r.batch_materialize.max_ns),
        i + 1 < reports.size() ? "," : "");
  }
  std::printf("]\n");
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
  const size_t kRows = 200000;  // probe side; >= 100k per the PR target
  const int reps = smoke ? 5 : 15;  // median needs >= 5 samples

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
  reports.push_back(
      Measure("scan_filter", Expr::Restrict(leaf_r(), half), db, kRows, reps));
  reports.push_back(Measure(
      "scan_filter_hashjoin",
      Expr::Join(Expr::Restrict(leaf_r(), half), leaf_s(), keys), db, kRows,
      reps));
  reports.push_back(Measure(
      "scan_filter_leftouter",
      Expr::OuterJoin(Expr::Restrict(leaf_r(), half), leaf_s(), keys,
                      /*preserves_left=*/true),
      db, kRows, reps));
  Emit(reports);
  return 0;
}

}  // namespace
}  // namespace fro

int main(int argc, char** argv) { return fro::Main(argc, argv); }
