// Contract enforcement: misusing the API trips FRO_CHECK with a
// diagnostic instead of corrupting state. (Status/Result cover the
// recoverable paths; these are the programming-error paths.) Also the
// recoverable misuses that must leave an object usable.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "common/status.h"
#include "lang/model.h"
#include "relational/database.h"

namespace fro {
namespace {

TEST(ApiMisuseDeathTest, ResultValueOnError) {
  Result<int> err = NotFound("nope");
  EXPECT_DEATH((void)err.value(), "Result::value");
}

TEST(ApiMisuseDeathTest, OkStatusIsNotAnError) {
  EXPECT_DEATH(Status(StatusCode::kOk, "fine"), "requires a code");
  EXPECT_DEATH((Result<int>{Status()}), "OK status");
}

TEST(ApiMisuseDeathTest, DatabaseAccessorsValidateIds) {
  Database db;
  EXPECT_DEATH(db.relation(0), "");
  RelId r = *db.AddRelation("R", {"a"});
  (void)r;
  EXPECT_DEATH(db.Attr("R", "nope"), "NotFound");
  EXPECT_DEATH(db.Rel("S"), "NotFound");
}

TEST(ApiMisuseDeathTest, ValueKindAccessors) {
  EXPECT_DEATH(Value::Null().AsInt(), "AsInt");
  EXPECT_DEATH(Value::Int(1).AsString(), "AsString");
  EXPECT_DEATH(Value::String("x").NumericValue(), "non-numeric");
}

TEST(ApiMisuseDeathTest, OperandAccessorsMatchKind) {
  Operand col = Operand::Column(0);
  EXPECT_DEATH(col.literal(), "");
  Operand lit = Operand::Literal(Value::Int(1));
  EXPECT_DEATH(lit.attr(), "");
}

TEST(ApiMisuseDeathTest, LeafRelIdCapped) {
  Database db;
  for (int i = 0; i < 65; ++i) {
    ASSERT_TRUE(db.AddRelation("R" + std::to_string(i), {"a"}).ok());
  }
  EXPECT_DEATH(Expr::Leaf(64, db), "64-bit relation mask");
}

TEST(ApiMisuseDeathTest, PredicateEvalNeedsItsColumns) {
  // Evaluating a predicate against a scheme missing its column.
  PredicatePtr p = EqCols(5, 6);
  Tuple row({Value::Int(1)});
  Scheme scheme({1});
  EXPECT_DEATH((void)p->Eval(row, scheme), "not in scheme");
}

TEST(ApiMisuseDeathTest, CheckMacroStreamsContext) {
  EXPECT_DEATH([] { FRO_CHECK(1 == 2) << "custom context 42"; }(),
               "custom context 42");
}

TEST(ApiMisuseDeathTest, RelationRowArity) {
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  EXPECT_DEATH(db.AddRow(r, {Value::Int(1)}), "arity");
}

// A rejected registration leaves no trace: the catalog used to register
// the relation before the duplicate column failed, run one relation
// ahead of the database, and abort the next AddRelation.
TEST(ApiMisuseTest, DuplicateColumnNamesLeaveTheDatabaseUsable) {
  Database db;
  Result<RelId> dup = db.AddRelation("R", {"a", "a"});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dup.status().message(), "attribute already registered: R.a");
  Result<RelId> next = db.AddRelation("S", {"b"});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(db.catalog().num_relations(), 1u);
  // The rejected name is still free, and an attribute whose qualified
  // name another relation already holds ("U.v.w" both ways) is refused
  // up front.
  ASSERT_TRUE(db.AddRelation("R", {"a"}).ok());
  ASSERT_TRUE(db.AddRelation("U.v", {"w"}).ok());
  Result<RelId> clash = db.AddRelation("U", {"v.w"});
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().message(), "attribute already registered: U.v.w");
  EXPECT_TRUE(db.AddRelation("T", {"x", "y"}).ok());
  EXPECT_EQ(db.catalog().num_relations(), 4u);
}

TEST(ApiMisuseTest, DuplicateFieldNamesAreRejected) {
  NestedDb db;
  const Status dup = db.DefineType(
      "T", {{"F", FieldDef::Kind::kScalar, ""},
            {"F", FieldDef::Kind::kSetValued, ""}});
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.FindType("T"), nullptr);
  EXPECT_TRUE(db.DefineType("T", {{"F", FieldDef::Kind::kScalar, ""}}).ok());
}

}  // namespace
}  // namespace fro
