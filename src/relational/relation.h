// Relations with bag (multiset) semantics.
//
// The paper defines relations as sets but explicitly prefers algebraic
// proofs valid "in an environment where duplicates are permitted", so rows
// are stored as a multiset. Comparison helpers implement the paper's
// padding convention: to compare or union relations with different schemes,
// both are first padded with nulls to the union scheme (Section 2.1).
//
// The rows sit behind a shared, copy-on-write pointer: copying a relation
// or renaming its attributes (Renamed) shares them in O(1), and the first
// write through a copy that still shares them copies them. A relation
// read by several threads is only read; a writer owns its copy.

#ifndef FRO_RELATIONAL_RELATION_H_
#define FRO_RELATIONAL_RELATION_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace fro {

class Catalog;

/// A finite bag of tuples over a fixed Scheme.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Scheme scheme) : scheme_(std::move(scheme)) {}
  Relation(Scheme scheme, std::vector<Tuple> rows);

  const Scheme& scheme() const { return scheme_; }
  size_t NumRows() const { return rows_ != nullptr ? rows_->size() : 0; }
  bool empty() const { return NumRows() == 0; }
  const Tuple& row(size_t i) const { return (*rows_)[i]; }
  /// The row storage; shared with every copy and renaming of this
  /// relation until one of them writes.
  const std::vector<Tuple>& rows() const;

  /// The same rows under `scheme`, which must have this relation's arity:
  /// the paper's "copy of the same relation with renamed attributes"
  /// (Section 1.2), without copying a row.
  Relation Renamed(Scheme scheme) const;

  /// Appends a row; arity must match the scheme.
  void AddRow(Tuple row);
  void AddRow(std::vector<Value> values) { AddRow(Tuple(std::move(values))); }

  void Reserve(size_t n) { MutableRows().reserve(n); }

  /// Value of attribute `attr` in row `i`; the attribute must be in the
  /// scheme.
  const Value& ValueOf(size_t i, AttrId attr) const;

  std::string ToString(const Catalog* catalog = nullptr) const;

 private:
  /// The rows, made private to this relation first if they are shared.
  std::vector<Tuple>& MutableRows();

  Scheme scheme_;
  std::shared_ptr<std::vector<Tuple>> rows_;  // null: no rows yet
};

/// Re-layouts `rel` to `target` scheme: attributes present in `rel` keep
/// their values; attributes only in `target` are null-padded. Every
/// attribute of `rel` must appear in `target`.
Relation PadToScheme(const Relation& rel, const Scheme& target);

/// The union scheme of two relations with canonical (sorted-AttrId) column
/// order.
Scheme UnionScheme(const Relation& a, const Relation& b);

/// Bag union after padding both operands to the union scheme (the paper's
/// convention for writing `(R - S) ∪ (R ▷ S)`).
Relation BagUnionPadded(const Relation& a, const Relation& b);

/// Multiset equality modulo scheme order and padding: both relations are
/// padded to the union scheme (canonical column order) and compared as
/// sorted bags. This is the paper's notion of "same result".
bool BagEquals(const Relation& a, const Relation& b);

/// Stable textual form: canonical column order, sorted rows. Two relations
/// are BagEquals iff their canonical strings match; handy in test failures.
std::string CanonicalString(const Relation& rel,
                            const Catalog* catalog = nullptr);

}  // namespace fro

#endif  // FRO_RELATIONAL_RELATION_H_
