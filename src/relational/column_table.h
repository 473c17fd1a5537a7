// A whole result held as columns: the scheme, one ColumnVector per
// attribute, and a row count. The columnar counterpart of Relation, for
// results that go from the executor's batches to the renderer without a
// row Tuple in between (exec's DrainColumns, relational/pretty.h).

#ifndef FRO_RELATIONAL_COLUMN_TABLE_H_
#define FRO_RELATIONAL_COLUMN_TABLE_H_

#include <vector>

#include "common/check.h"
#include "relational/column.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace fro {

/// A bag of rows over a fixed Scheme, stored column by column. Column
/// `pos` holds the attribute at scheme position `pos`; every column has
/// NumRows() values. The row count is kept apart from the columns so a
/// zero-arity table still counts its rows.
class ColumnTable {
 public:
  ColumnTable() = default;
  /// An empty table with one column per attribute of `scheme`.
  explicit ColumnTable(Scheme scheme);

  /// The same rows as `rel`, transposed once.
  static ColumnTable FromRelation(const Relation& rel);

  const Scheme& scheme() const { return scheme_; }
  size_t arity() const { return columns_.size(); }
  size_t NumRows() const { return num_rows_; }
  const ColumnVector& column(size_t pos) const { return columns_[pos]; }

  /// Writers append the same number of values to every column, then
  /// commit that many rows.
  ColumnVector* mutable_column(size_t pos) { return &columns_[pos]; }
  void CommitRows(size_t n) {
    num_rows_ += n;
    for (const ColumnVector& column : columns_) {
      FRO_DCHECK(column.size() == num_rows_);
    }
  }

  /// The rows as Tuples, in table order.
  Relation ToRelation() const;

 private:
  Scheme scheme_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fro

#endif  // FRO_RELATIONAL_COLUMN_TABLE_H_
