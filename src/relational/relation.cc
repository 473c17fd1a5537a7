#include "relational/relation.h"

#include <algorithm>

#include "common/check.h"

namespace fro {

Relation::Relation(Scheme scheme, std::vector<Tuple> rows)
    : scheme_(std::move(scheme)),
      rows_(std::make_shared<std::vector<Tuple>>(std::move(rows))) {
  for (const Tuple& row : *rows_) {
    FRO_CHECK_EQ(row.arity(), scheme_.size());
  }
}

const std::vector<Tuple>& Relation::rows() const {
  static const std::vector<Tuple> kNoRows;
  return rows_ != nullptr ? *rows_ : kNoRows;
}

Relation Relation::Renamed(Scheme scheme) const {
  FRO_CHECK_EQ(scheme.size(), scheme_.size())
      << "a renaming keeps the relation's arity";
  Relation out(std::move(scheme));
  out.rows_ = rows_;
  return out;
}

std::vector<Tuple>& Relation::MutableRows() {
  if (rows_ == nullptr) {
    rows_ = std::make_shared<std::vector<Tuple>>();
  } else if (rows_.use_count() > 1) {
    rows_ = std::make_shared<std::vector<Tuple>>(*rows_);
  }
  return *rows_;
}

void Relation::AddRow(Tuple row) {
  FRO_CHECK_EQ(row.arity(), scheme_.size())
      << "row arity does not match scheme";
  MutableRows().push_back(std::move(row));
}

const Value& Relation::ValueOf(size_t i, AttrId attr) const {
  int pos = scheme_.IndexOf(attr);
  FRO_CHECK_GE(pos, 0) << "attribute not in scheme";
  return row(i).value(static_cast<size_t>(pos));
}

std::string Relation::ToString(const Catalog* catalog) const {
  std::string out = "[";
  for (size_t c = 0; c < scheme_.size(); ++c) {
    if (c > 0) out += ", ";
    out += catalog != nullptr ? catalog->AttrName(scheme_.col(c))
                              : "#" + std::to_string(scheme_.col(c));
  }
  out += "]\n";
  for (const Tuple& row : rows()) {
    out += "  " + row.ToString() + "\n";
  }
  return out;
}

Relation PadToScheme(const Relation& rel, const Scheme& target) {
  // Mapping from target column to source column (-1 = pad with null).
  std::vector<int> source(target.size(), -1);
  for (size_t c = 0; c < target.size(); ++c) {
    source[c] = rel.scheme().IndexOf(target.col(c));
  }
  for (AttrId id : rel.scheme().cols()) {
    FRO_CHECK(target.Contains(id))
        << "PadToScheme: target scheme missing attribute " << id;
  }
  Relation out(target);
  out.Reserve(rel.NumRows());
  for (const Tuple& row : rel.rows()) {
    std::vector<Value> values(target.size());
    for (size_t c = 0; c < target.size(); ++c) {
      if (source[c] >= 0) values[c] = row.value(static_cast<size_t>(source[c]));
    }
    out.AddRow(Tuple(std::move(values)));
  }
  return out;
}

Scheme UnionScheme(const Relation& a, const Relation& b) {
  AttrSet all = a.scheme().ToAttrSet().Union(b.scheme().ToAttrSet());
  return Scheme(all.ids());
}

Relation BagUnionPadded(const Relation& a, const Relation& b) {
  Scheme target = UnionScheme(a, b);
  Relation pa = PadToScheme(a, target);
  Relation pb = PadToScheme(b, target);
  Relation out(target);
  out.Reserve(pa.NumRows() + pb.NumRows());
  for (const Tuple& row : pa.rows()) out.AddRow(row);
  for (const Tuple& row : pb.rows()) out.AddRow(row);
  return out;
}

namespace {

std::vector<Tuple> SortedPaddedRows(const Relation& rel,
                                    const Scheme& target) {
  Relation padded = PadToScheme(rel, target);
  std::vector<Tuple> rows = padded.rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

bool BagEquals(const Relation& a, const Relation& b) {
  if (a.NumRows() != b.NumRows()) return false;
  Scheme target = UnionScheme(a, b);
  return SortedPaddedRows(a, target) == SortedPaddedRows(b, target);
}

std::string CanonicalString(const Relation& rel, const Catalog* catalog) {
  Scheme canonical(rel.scheme().ToAttrSet().ids());
  std::vector<Tuple> rows = SortedPaddedRows(rel, canonical);
  Relation sorted(canonical, std::move(rows));
  return sorted.ToString(catalog);
}

}  // namespace fro
