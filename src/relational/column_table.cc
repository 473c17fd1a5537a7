#include "relational/column_table.h"

namespace fro {

ColumnTable::ColumnTable(Scheme scheme)
    : scheme_(std::move(scheme)), columns_(scheme_.size()) {}

ColumnTable ColumnTable::FromRelation(const Relation& rel) {
  ColumnTable table(rel.scheme());
  const std::vector<Tuple>& rows = rel.rows();
  for (size_t c = 0; c < table.arity(); ++c) {
    ColumnVector& column = table.columns_[c];
    column.Reserve(rows.size());
    for (const Tuple& row : rows) column.Append(row.value(c));
  }
  table.num_rows_ = rows.size();
  return table;
}

Relation ColumnTable::ToRelation() const {
  std::vector<Tuple> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (const ColumnVector& column : columns_) {
      values.push_back(column.ValueAt(r));
    }
    rows.emplace_back(std::move(values));
  }
  return Relation(scheme_, std::move(rows));
}

}  // namespace fro
