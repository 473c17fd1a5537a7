// Predicate trees: comparisons, boolean connectives, IS NULL.
//
// Predicates evaluate under Kleene three-valued logic; a tuple satisfies a
// predicate only if it evaluates to True.
//
// This header also implements the paper's central side condition: a
// predicate p is *strong* with respect to an attribute set S if p cannot
// evaluate to True on any tuple whose S attributes are all null
// (Section 2.1). Strength is decided by an abstract interpretation that is
// conservative: `IsStrongWrt` never returns true for a non-strong
// predicate. (It can return false for a predicate that is strong only via
// value-level reasoning across conjuncts, which does not arise for the
// predicate shapes the paper considers.)

#ifndef FRO_RELATIONAL_PREDICATE_H_
#define FRO_RELATIONAL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace fro {

class Catalog;

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpSymbol(CmpOp op);

/// A scalar operand of a comparison: a column reference or a literal.
class Operand {
 public:
  static Operand Column(AttrId attr) { return Operand(attr); }
  static Operand Literal(Value value) { return Operand(std::move(value)); }

  bool is_column() const { return is_column_; }
  AttrId attr() const;
  const Value& literal() const;

  /// The operand's value under `tuple` (literal value, or the column's
  /// value looked up through `scheme`).
  const Value& Resolve(const Tuple& tuple, const Scheme& scheme) const;

  std::string ToString(const Catalog* catalog) const;

 private:
  explicit Operand(AttrId attr) : is_column_(true), attr_(attr) {}
  explicit Operand(Value value)
      : is_column_(false), literal_(std::move(value)) {}

  bool is_column_;
  AttrId attr_ = 0;
  Value literal_;
};

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// An immutable predicate tree. Build via the factory functions; share via
/// PredicatePtr.
class Predicate {
 public:
  enum class Kind : uint8_t { kConst, kCmp, kAnd, kOr, kNot, kIsNull };

  /// Constant TRUE / FALSE.
  static PredicatePtr Const(bool value);
  static PredicatePtr Cmp(CmpOp op, Operand lhs, Operand rhs);
  /// N-ary AND; flattens nested ANDs; empty list means TRUE.
  static PredicatePtr And(std::vector<PredicatePtr> children);
  /// N-ary OR; flattens nested ORs; empty list means FALSE.
  static PredicatePtr Or(std::vector<PredicatePtr> children);
  static PredicatePtr Not(PredicatePtr child);
  static PredicatePtr IsNull(Operand operand);

  Kind kind() const { return kind_; }

  /// Cached 64-bit structural hash, computed at construction. Canonical
  /// with respect to AND/OR child order (children are combined in sorted
  /// hash order), matching the equivalence the canonical fingerprint uses:
  /// two conjunctions differing only in conjunct order hash identically.
  uint64_t Hash() const { return hash_; }

  bool const_value() const { return const_value_; }
  CmpOp cmp_op() const { return cmp_op_; }
  const Operand& lhs() const { return operands_[0]; }
  const Operand& rhs() const { return operands_[1]; }
  const Operand& operand() const { return operands_[0]; }
  const std::vector<PredicatePtr>& children() const { return children_; }

  /// Three-valued evaluation against a row of `scheme`.
  TriBool Eval(const Tuple& tuple, const Scheme& scheme) const;

  /// Attributes referenced anywhere in the tree.
  const AttrSet& References() const { return references_; }

  /// True if the predicate can never evaluate to True when every attribute
  /// in `nulled` is null. Conservative (see file comment).
  bool IsStrongWrt(const AttrSet& nulled) const;

  /// Splits a top-level conjunction into its conjuncts (a non-AND predicate
  /// is its own single conjunct). A constant TRUE yields no conjuncts.
  std::vector<PredicatePtr> Conjuncts(const PredicatePtr& self) const;

  std::string ToString(const Catalog* catalog = nullptr) const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kConst;
  uint64_t hash_ = 0;
  bool const_value_ = true;
  CmpOp cmp_op_ = CmpOp::kEq;
  std::vector<Operand> operands_;
  std::vector<PredicatePtr> children_;
  AttrSet references_;
};

/// A predicate compiled against one fixed Scheme: every column operand's
/// position is resolved at bind time, so per-row evaluation is a flat
/// tree walk over direct tuple indices — no per-row hash lookups. This is
/// the batch executor's amortization of predicate interpretation: bind
/// once per pipeline, evaluate per tuple. Equivalent to
/// `pred->Eval(tuple, scheme)` on every input (the equivalence suite
/// asserts executor/evaluator agreement).
class BoundPredicate {
 public:
  /// Unbound; Eval must not be called until Bind().
  BoundPredicate() = default;
  BoundPredicate(const PredicatePtr& pred, const Scheme& scheme) {
    Bind(pred, scheme);
  }

  /// (Re)binds to `pred` resolved against `scheme`. Like
  /// Operand::Resolve, check-fails if a referenced column is missing.
  void Bind(const PredicatePtr& pred, const Scheme& scheme);

  bool bound() const { return !nodes_.empty(); }

  /// Three-valued evaluation; positions were resolved at bind time.
  TriBool Eval(const Tuple& tuple) const { return EvalNode(0, tuple); }

 private:
  struct Node {
    Predicate::Kind kind = Predicate::Kind::kConst;
    bool const_value = true;
    CmpOp op = CmpOp::kEq;
    /// Column position in the bound scheme, or -1 for a literal operand.
    int lhs_pos = -1;
    int rhs_pos = -1;
    Value lhs_lit;
    Value rhs_lit;
    /// Indices into nodes_ (children stored after their parent).
    std::vector<uint32_t> children;
  };

  uint32_t Compile(const Predicate& pred, const Scheme& scheme);
  TriBool EvalNode(uint32_t index, const Tuple& tuple) const;

  std::vector<Node> nodes_;
};

class ColumnVector;

/// A predicate compiled against one fixed Scheme for column-at-a-time
/// evaluation: the batch engine's kernel form of BoundPredicate. Where
/// BoundPredicate walks the tree once per row, VectorPredicate walks it
/// once per batch, each node producing two byte masks over the rows —
/// is-True and is-False (neither set = Unknown, the 3VL encoding that
/// makes Kleene connectives plain byte ops: AND is t1&t2 / f1|f2, OR is
/// t1|t2 / f1&f2, NOT swaps). Comparisons over dense numeric columns run
/// as tight auto-vectorizable loops with the null masks folded in
/// afterwards; generic (string/mixed) columns fall back to a scalar loop
/// over stored Values. Row-for-row equivalent to BoundPredicate::Eval —
/// including the quirk that SQL numeric comparison is expressed purely
/// via `<` and `>` (so kernels use e.g. !(a<b)&&!(a>b) for equality
/// rather than operator==).
class VectorPredicate {
 public:
  VectorPredicate() = default;
  VectorPredicate(const PredicatePtr& pred, const Scheme& scheme) {
    Bind(pred, scheme);
  }

  void Bind(const PredicatePtr& pred, const Scheme& scheme);
  bool bound() const { return !nodes_.empty(); }

  /// Evaluates rows [offset, offset+n) of a columnized input. `cols` is
  /// indexed by bound-scheme position (length = scheme size; positions
  /// the predicate never references may be null). out_true[i] /
  /// out_false[i] receive 1 where row offset+i evaluates True / False;
  /// either output may be null when not needed. Not const: reuses
  /// per-instance scratch, so each thread needs its own VectorPredicate
  /// (batch operators are per-worker already).
  void Eval(const ColumnVector* const* cols, size_t offset, size_t n,
            uint8_t* out_true, uint8_t* out_false);

  /// Distinct bound-scheme positions the predicate reads: the columns a
  /// caller must supply in `cols` (others may be left null).
  const std::vector<int>& column_positions() const { return col_positions_; }

 private:
  struct Node {
    Predicate::Kind kind = Predicate::Kind::kConst;
    bool const_value = true;
    CmpOp op = CmpOp::kEq;
    int lhs_pos = -1;  // column position in the bound scheme, or -1
    int rhs_pos = -1;
    Value lhs_lit;
    Value rhs_lit;
    std::vector<uint32_t> children;
  };

  uint32_t Compile(const Predicate& pred, const Scheme& scheme);
  void EvalNode(uint32_t index, const ColumnVector* const* cols,
                size_t offset, size_t n);
  void EvalCmp(const Node& node, const ColumnVector* const* cols,
               size_t offset, size_t n, uint8_t* t, uint8_t* f);

  std::vector<Node> nodes_;
  std::vector<int> col_positions_;
  // Per-node result masks and dense-side conversion buffers, reused
  // across batches so steady-state evaluation never allocates.
  std::vector<std::vector<uint8_t>> true_masks_;
  std::vector<std::vector<uint8_t>> false_masks_;
  std::vector<double> lhs_scratch_;
  std::vector<double> rhs_scratch_;
};

/// Convenience factories for the common column/column and column/literal
/// comparisons.
PredicatePtr EqCols(AttrId a, AttrId b);
PredicatePtr CmpCols(CmpOp op, AttrId a, AttrId b);
PredicatePtr CmpLit(CmpOp op, AttrId a, Value v);

/// AND of two predicates (either may be null, meaning absent).
PredicatePtr AndOf(PredicatePtr a, PredicatePtr b);

/// Structural equality modulo AND/OR child order (the same equivalence
/// `Hash()` is canonical for). Used by the expression interner to verify
/// candidates that collide on `Hash()`.
bool PredEquals(const Predicate& a, const Predicate& b);

}  // namespace fro

#endif  // FRO_RELATIONAL_PREDICATE_H_
