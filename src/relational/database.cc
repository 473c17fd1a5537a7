#include "relational/database.h"

#include "common/check.h"

namespace fro {

Result<RelId> Database::AddRelation(
    const std::string& name, const std::vector<std::string>& column_names) {
  FRO_ASSIGN_OR_RETURN(RelId rel, catalog_.RegisterRelation(name));
  std::vector<AttrId> cols;
  cols.reserve(column_names.size());
  for (const std::string& col : column_names) {
    FRO_ASSIGN_OR_RETURN(AttrId attr, catalog_.RegisterAttr(rel, col));
    cols.push_back(attr);
  }
  relations_.emplace_back(Scheme(std::move(cols)));
  generations_.push_back(0);
  FRO_CHECK_EQ(relations_.size(), static_cast<size_t>(rel) + 1);
  InvalidateAllCaches();  // relations_ may have reallocated
  return rel;
}

Result<RelId> Database::CloneRelation(RelId source,
                                      const std::string& new_name) {
  if (source >= relations_.size()) {
    return InvalidArgument("unknown source relation");
  }
  std::vector<std::string> columns;
  for (AttrId attr : scheme(source).cols()) {
    const std::string& qualified = catalog_.AttrName(attr);
    columns.push_back(qualified.substr(qualified.find('.') + 1));
  }
  FRO_ASSIGN_OR_RETURN(RelId copy, AddRelation(new_name, columns));
  SetRows(copy, relations_[source].rows());
  return copy;
}

void Database::SetRows(RelId rel, std::vector<Tuple> rows) {
  FRO_CHECK_LT(rel, relations_.size());
  relations_[rel] = Relation(relations_[rel].scheme(), std::move(rows));
  ++generations_[rel];
  InvalidateCaches(rel);
}

void Database::AddRow(RelId rel, std::vector<Value> values) {
  FRO_CHECK_LT(rel, relations_.size());
  relations_[rel].AddRow(std::move(values));
  ++generations_[rel];
  InvalidateCaches(rel);
}

uint64_t Database::generation(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  return generations_[rel];
}

const Relation& Database::relation(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  return relations_[rel];
}

Relation* Database::mutable_relation(RelId rel) {
  FRO_CHECK_LT(rel, relations_.size());
  ++generations_[rel];    // the handout itself is a (potential) mutation
  InvalidateCaches(rel);  // the caller may mutate rows through this
  return &relations_[rel];
}

std::shared_ptr<RelationColumns> Database::CachedColumns(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  std::lock_guard<std::mutex> lock(*cache_mu_);
  if (columns_cache_.size() != relations_.size()) {
    columns_cache_.resize(relations_.size());
  }
  std::shared_ptr<RelationColumns>& slot = columns_cache_[rel];
  if (slot == nullptr) {
    slot = std::make_shared<RelationColumns>(&relations_[rel]);
  }
  return slot;
}

std::shared_ptr<const RelationStats> Database::CachedStats(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  std::lock_guard<std::mutex> lock(*cache_mu_);
  if (stats_cache_.size() != relations_.size()) {
    stats_cache_.resize(relations_.size());
  }
  std::shared_ptr<const RelationStats>& slot = stats_cache_[rel];
  if (slot == nullptr) {
    slot = std::make_shared<const RelationStats>(
        ComputeRelationStats(relations_[rel]));
  }
  return slot;
}

void Database::InvalidateCaches(RelId rel) {
  std::lock_guard<std::mutex> lock(*cache_mu_);
  if (rel < columns_cache_.size()) columns_cache_[rel].reset();
  if (rel < stats_cache_.size()) stats_cache_[rel].reset();
}

void Database::InvalidateAllCaches() {
  std::lock_guard<std::mutex> lock(*cache_mu_);
  columns_cache_.clear();
  stats_cache_.clear();
}

AttrId Database::Attr(const std::string& rel_name,
                      const std::string& attr_name) const {
  Result<AttrId> result = catalog_.FindAttr(rel_name, attr_name);
  FRO_CHECK(result.ok()) << result.status().ToString();
  return *result;
}

RelId Database::Rel(const std::string& name) const {
  Result<RelId> result = catalog_.FindRelation(name);
  FRO_CHECK(result.ok()) << result.status().ToString();
  return *result;
}

}  // namespace fro
