#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "relational/tribool.h"
#include "relational/value.h"

namespace fro {
namespace {

TEST(TriBoolTest, KleeneTables) {
  const TriBool f = TriBool::kFalse;
  const TriBool u = TriBool::kUnknown;
  const TriBool t = TriBool::kTrue;
  EXPECT_EQ(TriAnd(t, t), t);
  EXPECT_EQ(TriAnd(t, u), u);
  EXPECT_EQ(TriAnd(f, u), f);
  EXPECT_EQ(TriAnd(u, u), u);
  EXPECT_EQ(TriOr(f, f), f);
  EXPECT_EQ(TriOr(f, u), u);
  EXPECT_EQ(TriOr(t, u), t);
  EXPECT_EQ(TriOr(u, u), u);
  EXPECT_EQ(TriNot(t), f);
  EXPECT_EQ(TriNot(f), t);
  EXPECT_EQ(TriNot(u), u);
  EXPECT_TRUE(IsTrue(t));
  EXPECT_FALSE(IsTrue(u));
  EXPECT_FALSE(IsTrue(f));
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Int(3).NumericValue(), 3.0);
}

TEST(ValueTest, StructuralEquality) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  // Int and double are structurally distinct even if numerically equal.
  EXPECT_FALSE(Value::Int(1) == Value::Double(1.0));
  EXPECT_FALSE(Value::Int(1) == Value::Null());
}

TEST(ValueTest, StructuralOrderIsTotal) {
  // null < int < double < string by kind.
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(99), Value::Double(0.0));
  EXPECT_LT(Value::Double(99), Value::String(""));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, SqlComparisonWithNullIsUnknown) {
  EXPECT_EQ(SqlEq(Value::Null(), Value::Int(1)), TriBool::kUnknown);
  EXPECT_EQ(SqlEq(Value::Int(1), Value::Null()), TriBool::kUnknown);
  EXPECT_EQ(SqlEq(Value::Null(), Value::Null()), TriBool::kUnknown);
  EXPECT_EQ(SqlNe(Value::Null(), Value::Int(1)), TriBool::kUnknown);
  EXPECT_EQ(SqlLt(Value::Null(), Value::Int(1)), TriBool::kUnknown);
}

TEST(ValueTest, SqlComparisonNumeric) {
  EXPECT_EQ(SqlEq(Value::Int(2), Value::Int(2)), TriBool::kTrue);
  EXPECT_EQ(SqlEq(Value::Int(2), Value::Double(2.0)), TriBool::kTrue);
  EXPECT_EQ(SqlLt(Value::Int(1), Value::Double(1.5)), TriBool::kTrue);
  EXPECT_EQ(SqlGt(Value::Int(1), Value::Int(3)), TriBool::kFalse);
  EXPECT_EQ(SqlGe(Value::Int(3), Value::Int(3)), TriBool::kTrue);
  EXPECT_EQ(SqlLe(Value::Int(4), Value::Int(3)), TriBool::kFalse);
  EXPECT_EQ(SqlNe(Value::Int(4), Value::Int(3)), TriBool::kTrue);
}

TEST(ValueTest, SqlComparisonStrings) {
  EXPECT_EQ(SqlEq(Value::String("a"), Value::String("a")), TriBool::kTrue);
  EXPECT_EQ(SqlLt(Value::String("a"), Value::String("b")), TriBool::kTrue);
}

TEST(ValueTest, CrossKindComparisonIsUnknown) {
  EXPECT_EQ(SqlEq(Value::String("1"), Value::Int(1)), TriBool::kUnknown);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "-");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("q").ToString(), "'q'");
}

TEST(ValueTest, SixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

// The rows of the parity table: every kind, signed zeros, NaN, and empty
// and long strings.
std::vector<Value> ParityValues() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {Value::Null(),
          Value::Int(-1),
          Value::Int(0),
          Value::Int(1),
          Value::Double(-0.0),
          Value::Double(0.0),
          Value::Double(1.0),
          Value::Double(nan),
          Value::String(""),
          Value::String("a"),
          Value::String(std::string(100, 'x')),
          Value::String(std::string(100, 'x') + "y")};
}

// The reference semantics: a variant over the same kinds in the same
// order, whose == and < are structural equality and the kind-then-value
// order.
using Reference = std::variant<std::monostate, int64_t, double, std::string>;

Reference ReferenceOf(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return std::monostate{};
    case Value::Kind::kInt:
      return v.AsInt();
    case Value::Kind::kDouble:
      return v.AsDouble();
    case Value::Kind::kString:
      return v.AsString();
  }
  return std::monostate{};
}

size_t ReferenceHash(const Reference& r) {
  if (const auto* i = std::get_if<int64_t>(&r)) return std::hash<int64_t>{}(*i);
  if (const auto* d = std::get_if<double>(&r)) return std::hash<double>{}(*d);
  if (const auto* s = std::get_if<std::string>(&r)) {
    return std::hash<std::string>{}(*s);
  }
  return Value::Null().Hash();
}

TEST(ValueTest, ParityTable) {
  const std::vector<Value> values = ParityValues();
  for (const Value& a : values) {
    const Reference ra = ReferenceOf(a);
    EXPECT_EQ(a.Hash(), ReferenceHash(ra)) << a.ToString();
    for (const Value& b : values) {
      const Reference rb = ReferenceOf(b);
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      EXPECT_EQ(a == b, ra == rb);
      EXPECT_EQ(a < b, ra < rb);
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
      }
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(Value::Double(0.0) == Value::Double(-0.0));
  EXPECT_FALSE(Value::Double(nan) == Value::Double(nan));
  EXPECT_FALSE(Value::Int(1) == Value::Double(1.0));
  EXPECT_TRUE(Value::Int(1) < Value::Double(1.0));
  EXPECT_FALSE(Value::Double(1.0) < Value::Int(1));
  EXPECT_TRUE(Value::Null() < Value::Int(-1));
  EXPECT_TRUE(Value::String("") < Value::String("a"));
}

TEST(ValueTest, CopyMoveAndAssignAcrossKinds) {
  const std::vector<Value> values = ParityValues();
  for (const Value& from : values) {
    for (const Value& to : values) {
      Value copy = from;
      EXPECT_EQ(copy.kind(), from.kind());
      EXPECT_EQ(copy.ToString(), from.ToString());

      Value assigned = to;
      assigned = from;
      EXPECT_EQ(assigned.ToString(), from.ToString());

      Value moved_into = to;
      Value source = from;
      moved_into = std::move(source);
      EXPECT_EQ(moved_into.ToString(), from.ToString());
      EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)
    }
    Value self = from;
    const Value& alias = self;
    self = alias;
    EXPECT_EQ(self.ToString(), from.ToString());
    Value self_move = from;
    Value& move_alias = self_move;
    self_move = std::move(move_alias);
    EXPECT_EQ(self_move.ToString(), from.ToString());
  }
}

TEST(ValueTest, MovedFromValueIsNull) {
  Value s = Value::String("payload");
  Value t(std::move(s));
  EXPECT_TRUE(s.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(t.AsString(), "payload");
  Value i = Value::Int(5);
  Value j = std::move(i);
  EXPECT_TRUE(i.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(j.AsInt(), 5);
}

TEST(ValueTest, SharedStringOutlivesItsSource) {
  const std::string text(64, 'z');
  Value copy;
  const std::string* shared = nullptr;
  {
    Value original = Value::String(text);
    copy = original;
    shared = original.IfString();
    // Copies share one block: the same string object, no new allocation.
    EXPECT_EQ(copy.IfString(), shared);
  }
  EXPECT_EQ(copy.IfString(), shared);
  EXPECT_EQ(copy.AsString(), text);
  EXPECT_EQ(copy, Value::String(text));
}

TEST(ValueTest, IfAccessorsMatchKind) {
  EXPECT_EQ(*Value::Int(3).IfInt(), 3);
  EXPECT_EQ(Value::Int(3).IfDouble(), nullptr);
  EXPECT_EQ(*Value::Double(0.5).IfDouble(), 0.5);
  EXPECT_EQ(Value::Double(0.5).IfString(), nullptr);
  EXPECT_EQ(*Value::String("s").IfString(), "s");
  EXPECT_EQ(Value::Null().IfInt(), nullptr);
}

TEST(ValueTest, ThreadsShareOneStringBlock) {
  const Value shared = Value::String(std::string(40, 's'));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      std::vector<Value> held;
      for (int round = 0; round < 2000; ++round) {
        held.push_back(shared);
        if (held.size() > 16) held.erase(held.begin(), held.begin() + 8);
        const Value copy = held.back();
        EXPECT_EQ(copy.AsString().size(), 40u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared.AsString(), std::string(40, 's'));
}

}  // namespace
}  // namespace fro
