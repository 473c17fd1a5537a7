// Columnar storage and batch tests: ColumnVector tagging/demotion,
// ColumnBatch's three content modes and selection-vector edge cases
// (empty selection, full-capacity batch, all-null columns, single-row
// selection), VectorPredicate kernel equivalence with the row-at-a-time
// BoundPredicate (including NaN and mixed-kind quirks of CompareSql),
// and HashColumns agreement with the scalar key normalization + hash.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "exec/batch.h"
#include "relational/column.h"
#include "relational/ops.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace fro {
namespace {

// --- ColumnVector ----------------------------------------------------------

TEST(ColumnVectorTest, IntColumnStaysDense) {
  ColumnVector col;
  col.Append(Value::Int(1));
  col.AppendNull();
  col.Append(Value::Int(-7));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kInt);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.is_null(0));
  EXPECT_TRUE(col.is_null(1));
  EXPECT_EQ(col.ints()[0], 1);
  EXPECT_EQ(col.ints()[2], -7);
  EXPECT_EQ(col.ValueAt(1), Value::Null());
  EXPECT_EQ(col.ValueAt(2), Value::Int(-7));
}

TEST(ColumnVectorTest, AllNullColumnStaysEmptyTagged) {
  ColumnVector col;
  for (int i = 0; i < 5; ++i) col.AppendNull();
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kEmpty);
  EXPECT_EQ(col.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(col.is_null(i));
    EXPECT_EQ(col.ValueAt(i), Value::Null());
  }
}

// Mixing numeric kinds (or adding a string) demotes to generic storage,
// but ValueAt must reproduce the appended values exactly — structural
// kind included, because bag semantics distinguish Int(1) from
// Double(1.0).
TEST(ColumnVectorTest, DemotionPreservesExactValues) {
  ColumnVector col;
  col.Append(Value::Int(2));
  col.AppendNull();
  col.Append(Value::Double(2.5));  // demotes kInt -> kGeneric
  col.Append(Value::String("x"));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kGeneric);
  EXPECT_EQ(col.ValueAt(0), Value::Int(2));
  EXPECT_EQ(col.ValueAt(1), Value::Null());
  EXPECT_EQ(col.ValueAt(2), Value::Double(2.5));
  EXPECT_EQ(col.ValueAt(3), Value::String("x"));
}

TEST(ColumnVectorTest, AppendFromCopiesAcrossTags) {
  ColumnVector src;
  src.Append(Value::Int(4));
  src.Append(Value::Double(4.5));  // generic source
  src.AppendNull();

  ColumnVector dst;
  for (size_t i = 0; i < src.size(); ++i) dst.AppendFrom(src, i);
  ASSERT_EQ(dst.size(), src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.ValueAt(i), src.ValueAt(i)) << i;
  }
}

TEST(ColumnVectorTest, ClearRetagsForReuse) {
  ColumnVector col;
  col.Append(Value::String("s"));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kGeneric);
  col.Clear();
  EXPECT_EQ(col.size(), 0u);
  col.Append(Value::Int(9));
  EXPECT_EQ(col.tag(), ColumnVector::Tag::kInt);
  EXPECT_EQ(col.ValueAt(0), Value::Int(9));
}

// --- ColumnBatch selection-vector edge cases -------------------------------

Tuple Row2(Value a, Value b) {
  return Tuple({std::move(a), std::move(b)});
}

TEST(ColumnBatchTest, EmptySelectionIsEmptyButKeepsRawRows) {
  ColumnBatch batch(8);
  batch.Append(Row2(Value::Int(1), Value::Int(2)));
  batch.Append(Row2(Value::Int(3), Value::Int(4)));

  std::vector<uint8_t> keep(batch.NumRows(), 0);
  batch.NarrowToMask(keep.data());
  EXPECT_TRUE(batch.sel_active());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.NumRows(), 2u);  // raw content survives

  // Narrowing an already-empty selection stays empty.
  batch.NarrowSelection([](const Tuple&, size_t) { return true; });
  EXPECT_EQ(batch.size(), 0u);
}

TEST(ColumnBatchTest, FullCapacityBatchRoundTrips) {
  const size_t cap = 16;
  ColumnBatch batch(cap);
  for (size_t i = 0; i < cap; ++i) {
    EXPECT_FALSE(batch.full());
    batch.Append(Row2(Value::Int(static_cast<int64_t>(i)), Value::Null()));
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), cap);

  // Columnar read of a full row-mode batch: one transpose, dense ints.
  size_t offset = 77;
  const ColumnVector* c0 = batch.Column(0, &offset);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(offset, 0u);
  ASSERT_EQ(c0->size(), cap);
  EXPECT_EQ(c0->tag(), ColumnVector::Tag::kInt);
  for (size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(c0->ints()[i], static_cast<int64_t>(i));
  }
  const ColumnVector* c1 = batch.Column(1, &offset);
  EXPECT_EQ(c1->tag(), ColumnVector::Tag::kEmpty);
  EXPECT_TRUE(c1->is_null(cap - 1));
}

TEST(ColumnBatchTest, SingleRowSelection) {
  ColumnBatch batch(8);
  for (int i = 0; i < 5; ++i) {
    batch.Append(Row2(Value::Int(i), Value::Int(10 * i)));
  }
  batch.NarrowSelection([](const Tuple& row, size_t) {
    return row.value(0) == Value::Int(3);
  });
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.sel_index(0), 3u);
  EXPECT_EQ(batch.selected(0).value(1), Value::Int(30));

  // A raw-indexed mask applies on top of the active selection.
  std::vector<uint8_t> keep(batch.NumRows(), 1);
  keep[3] = 0;
  batch.NarrowToMask(keep.data());
  EXPECT_EQ(batch.size(), 0u);
}

TEST(ColumnBatchTest, ViewWithSnapshotColumnsIsOffsetRead) {
  Relation rel(Scheme({100, 101}));
  for (int i = 0; i < 10; ++i) {
    rel.AddRow({Value::Int(i), i % 3 == 0 ? Value::Null() : Value::Int(-i)});
  }
  RelationSnapshot cols(&rel);

  ColumnBatch batch(4);
  batch.SetView(&rel.rows()[6], 3, &cols, 6);
  EXPECT_TRUE(batch.is_view());
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.row(0).value(0), Value::Int(6));

  size_t offset = 0;
  const ColumnVector* c1 = batch.Column(1, &offset);
  EXPECT_EQ(offset, 6u);  // relation-backed: no per-batch transpose
  EXPECT_EQ(c1, &cols.Column(1));
  EXPECT_FALSE(c1->is_null(offset + 1));   // row 7
  EXPECT_TRUE(c1->is_null(offset + 3 - 0));  // raw row 9 is null (9 % 3 == 0)
  EXPECT_EQ(c1->ValueAt(offset + 1), Value::Int(-7));
}

TEST(ColumnBatchTest, ColumnarEmissionMaterializesRows) {
  ColumnBatch batch(8);
  batch.Clear();
  batch.BeginColumns(2);
  ASSERT_TRUE(batch.columnar());
  batch.mutable_column(0)->Append(Value::Int(1));
  batch.mutable_column(1)->AppendNull();
  batch.CommitColumnRow();
  batch.mutable_column(0)->Append(Value::Double(2.5));
  batch.mutable_column(1)->Append(Value::String("y"));
  batch.CommitColumnRow();

  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row(0).value(0), Value::Int(1));
  EXPECT_EQ(batch.row(0).value(1), Value::Null());
  EXPECT_EQ(batch.row(1).value(0), Value::Double(2.5));
  EXPECT_EQ(batch.row(1).value(1), Value::String("y"));

  // Selection machinery works identically over columnar content.
  std::vector<uint8_t> keep = {0, 1};
  batch.NarrowToMask(keep.data());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selected(0).value(1), Value::String("y"));
}

// --- VectorPredicate equivalence -------------------------------------------

// A value pool spanning every CompareSql regime: typed ints/doubles,
// NaN (which CompareSql treats as equal to every numeric), +-0.0,
// strings, and nulls.
std::vector<Value> ValuePool() {
  return {
      Value::Null(),
      Value::Int(0),
      Value::Int(1),
      Value::Int(-2),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(1.0),
      Value::Double(2.5),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::String(""),
      Value::String("a"),
      Value::String("b"),
  };
}

// Columnizes `rows` and checks VectorPredicate mask-for-row agreement
// with BoundPredicate under every narrowing-relevant reading.
void ExpectKernelAgreesWithRowEval(const PredicatePtr& pred,
                                   const Scheme& scheme,
                                   const std::vector<Tuple>& rows) {
  BoundPredicate row_eval(pred, scheme);
  VectorPredicate kernel(pred, scheme);

  std::vector<ColumnVector> cols(scheme.size());
  for (const Tuple& row : rows) {
    for (size_t c = 0; c < scheme.size(); ++c) cols[c].Append(row.value(c));
  }
  std::vector<const ColumnVector*> ptrs(scheme.size());
  for (size_t c = 0; c < scheme.size(); ++c) ptrs[c] = &cols[c];

  std::vector<uint8_t> is_true(rows.size()), is_false(rows.size());
  kernel.Eval(ptrs.data(), 0, rows.size(), is_true.data(), is_false.data());

  for (size_t i = 0; i < rows.size(); ++i) {
    const TriBool want = row_eval.Eval(rows[i]);
    EXPECT_EQ(is_true[i] != 0, want == TriBool::kTrue)
        << pred->ToString() << " row " << rows[i].ToString();
    EXPECT_EQ(is_false[i] != 0, want == TriBool::kFalse)
        << pred->ToString() << " row " << rows[i].ToString();
  }
}

TEST(VectorPredicateTest, MatchesBoundPredicateOnAllPoolPairs) {
  const Scheme scheme({1, 2});
  const std::vector<Value> pool = ValuePool();
  std::vector<Tuple> rows;
  for (const Value& a : pool) {
    for (const Value& b : pool) rows.push_back(Tuple({a, b}));
  }

  std::vector<PredicatePtr> preds;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    preds.push_back(CmpCols(op, 1, 2));
    preds.push_back(CmpLit(op, 1, Value::Int(1)));
    preds.push_back(CmpLit(op, 2, Value::Double(
        std::numeric_limits<double>::quiet_NaN())));
    preds.push_back(CmpLit(op, 1, Value::String("a")));
    preds.push_back(CmpLit(op, 2, Value::Null()));
  }
  preds.push_back(Predicate::IsNull(Operand::Column(1)));
  preds.push_back(Predicate::Not(Predicate::IsNull(Operand::Column(2))));
  preds.push_back(Predicate::Const(true));
  preds.push_back(Predicate::Const(false));
  preds.push_back(AndOf(CmpCols(CmpOp::kLe, 1, 2),
                        Predicate::Not(CmpLit(CmpOp::kEq, 2, Value::Int(0)))));
  preds.push_back(Predicate::Or(
      {CmpLit(CmpOp::kGt, 1, Value::Int(0)),
       Predicate::IsNull(Operand::Column(2))}));

  for (const PredicatePtr& pred : preds) {
    ExpectKernelAgreesWithRowEval(pred, scheme, rows);
  }
}

TEST(VectorPredicateTest, MatchesBoundPredicateOnRandomWideRows) {
  // Random wide rows over a mixed pool: whole columns can come out
  // dense-int, dense-double, all-null, or generic, exercising every
  // kernel dispatch arm against the row evaluator.
  const size_t kArity = 12;
  std::vector<AttrId> attrs;
  for (size_t c = 0; c < kArity; ++c) attrs.push_back(static_cast<AttrId>(c + 1));
  const Scheme scheme(attrs);
  const std::vector<Value> pool = ValuePool();

  Rng rng(0xC01);
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> vals;
    for (size_t c = 0; c < kArity; ++c) {
      // Bias a few columns towards one kind so dense paths actually hit.
      if (c % 4 == 0) {
        vals.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                          : Value::Int(rng.UniformInt(-3, 3)));
      } else if (c % 4 == 1) {
        vals.push_back(rng.Bernoulli(0.2)
                           ? Value::Null()
                           : Value::Double(0.5 * rng.UniformInt(-4, 4)));
      } else {
        vals.push_back(pool[rng.Uniform(pool.size())]);
      }
    }
    rows.push_back(Tuple(std::move(vals)));
  }

  for (uint64_t s = 0; s < 20; ++s) {
    Rng prng(DeriveSeed(0xBEEF, s));
    AttrId a = attrs[prng.Uniform(attrs.size())];
    AttrId b = attrs[prng.Uniform(attrs.size())];
    CmpOp op = static_cast<CmpOp>(prng.Uniform(6));
    PredicatePtr pred = AndOf(
        CmpCols(op, a, b),
        Predicate::Or({CmpLit(static_cast<CmpOp>(prng.Uniform(6)), a,
                              Value::Int(prng.UniformInt(-2, 2))),
                       Predicate::IsNull(Operand::Column(b))}));
    if (prng.Bernoulli(0.3)) pred = Predicate::Not(pred);
    ExpectKernelAgreesWithRowEval(pred, scheme, rows);
  }
}

TEST(VectorPredicateTest, AllNullColumnYieldsAllUnknown) {
  const Scheme scheme({1, 2});
  std::vector<Tuple> rows;
  for (int i = 0; i < 7; ++i) {
    rows.push_back(Tuple({Value::Null(), Value::Int(i)}));
  }
  // Comparisons against the all-null column are Unknown everywhere;
  // IS NULL on it is True everywhere.
  ExpectKernelAgreesWithRowEval(CmpCols(CmpOp::kEq, 1, 2), scheme, rows);
  ExpectKernelAgreesWithRowEval(CmpLit(CmpOp::kLt, 1, Value::Int(0)), scheme,
                                rows);
  ExpectKernelAgreesWithRowEval(Predicate::IsNull(Operand::Column(1)), scheme,
                                rows);
}

// --- HashColumns -----------------------------------------------------------

TEST(HashColumnsTest, AgreesWithScalarNormalizationAndHash) {
  ColumnVector ints, dbls;
  std::vector<Value> int_vals = {Value::Int(0), Value::Null(), Value::Int(-5),
                                 Value::Int(7)};
  std::vector<Value> dbl_vals = {Value::Double(-0.0), Value::Double(2.5),
                                 Value::Null(), Value::Double(0.0)};
  for (const Value& v : int_vals) ints.Append(v);
  for (const Value& v : dbl_vals) dbls.Append(v);

  for (const ColumnVector* col : {&ints, &dbls}) {
    const size_t n = col->size();
    std::vector<double> keys(n);
    std::vector<uint64_t> hashes(n);
    std::vector<uint8_t> has(n);
    ASSERT_TRUE(HashColumns({col}, 0, n, keys.data(), hashes.data(),
                            has.data()));
    for (size_t i = 0; i < n; ++i) {
      if (col->is_null(i)) {
        EXPECT_EQ(has[i], 0) << i;
        continue;
      }
      ASSERT_EQ(has[i], 1) << i;
      // Same normalization as the row path: ints widen to double,
      // -0.0 collapses to +0.0 (NormalizeHashKeyValue + flat-index rule).
      const Value norm = NormalizeHashKeyValue(col->ValueAt(i));
      double want_key = norm.AsDouble();
      if (want_key == 0.0) want_key = 0.0;  // +0.0 canonical form
      EXPECT_EQ(keys[i], want_key) << i;
      EXPECT_EQ(hashes[i], HashNumericKey(want_key)) << i;
    }
  }
}

TEST(HashColumnsTest, NegativeZeroHashesLikePositiveZero) {
  // Columns stay type-pure (an int mixed into a double column would
  // demote to generic and take the row path); equal keys must hash
  // equally across an int column and a double column, -0.0 included.
  ColumnVector dbls;
  dbls.Append(Value::Double(-0.0));
  dbls.Append(Value::Double(0.0));
  ColumnVector ints;
  ints.Append(Value::Int(0));
  ints.Append(Value::Int(0));

  std::vector<double> dkeys(2), ikeys(2);
  std::vector<uint64_t> dhashes(2), ihashes(2);
  std::vector<uint8_t> has(2);
  ASSERT_TRUE(HashColumns({&dbls}, 0, 2, dkeys.data(), dhashes.data(),
                          has.data()));
  ASSERT_TRUE(HashColumns({&ints}, 0, 2, ikeys.data(), ihashes.data(),
                          has.data()));
  EXPECT_EQ(dhashes[0], dhashes[1]);  // -0.0 vs +0.0
  EXPECT_EQ(dhashes[0], ihashes[0]);  // double 0.0 vs int 0
  EXPECT_FALSE(std::signbit(dkeys[0]));
}

TEST(HashColumnsTest, AllNullAndGenericColumns) {
  ColumnVector all_null;
  for (int i = 0; i < 4; ++i) all_null.AppendNull();
  std::vector<double> keys(4);
  std::vector<uint64_t> hashes(4);
  std::vector<uint8_t> has(4, 0xFF);
  // kEmpty column: every row lacks a key, but the batch path applies.
  ASSERT_TRUE(HashColumns({&all_null}, 0, 4, keys.data(), hashes.data(),
                          has.data()));
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(has[i], 0) << i;

  // A generic (string) column forces the row-at-a-time fallback.
  ColumnVector generic;
  generic.Append(Value::String("k"));
  generic.Append(Value::Int(1));
  EXPECT_FALSE(HashColumns({&generic}, 0, 2, keys.data(), hashes.data(),
                           has.data()));
}

TEST(HashColumnsTest, MultiColumnMixDependsOnAllColumns) {
  ColumnVector a, b;
  a.Append(Value::Int(1));
  a.Append(Value::Int(1));
  b.Append(Value::Int(2));
  b.Append(Value::Int(3));
  std::vector<uint64_t> hashes(2);
  std::vector<uint8_t> has(2);
  ASSERT_TRUE(HashColumns({&a, &b}, 0, 2, /*out_keys=*/nullptr, hashes.data(),
                          has.data()));
  EXPECT_EQ(has[0], 1);
  EXPECT_EQ(has[1], 1);
  EXPECT_NE(hashes[0], hashes[1]);  // differing second column changes the mix

  // Null in any key column kills the row's key.
  ColumnVector c;
  c.Append(Value::Int(9));
  c.AppendNull();
  ASSERT_TRUE(HashColumns({&a, &c}, 0, 2, nullptr, hashes.data(), has.data()));
  EXPECT_EQ(has[0], 1);
  EXPECT_EQ(has[1], 0);
}

}  // namespace
}  // namespace fro
