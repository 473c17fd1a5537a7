#include "relational/database.h"

#include "common/check.h"

namespace fro {

Result<Scheme> Database::Register(
    const std::string& name, const std::vector<std::string>& column_names) {
  // Validate first: a rejected relation must leave no trace, or the
  // catalog would run one relation ahead of relations_.
  FRO_RETURN_IF_ERROR(catalog_.CheckRegistration(name, column_names));
  FRO_ASSIGN_OR_RETURN(RelId rel, catalog_.RegisterRelation(name));
  FRO_CHECK_EQ(relations_.size(), static_cast<size_t>(rel));
  std::vector<AttrId> cols;
  cols.reserve(column_names.size());
  for (const std::string& col : column_names) {
    FRO_ASSIGN_OR_RETURN(AttrId attr, catalog_.RegisterAttr(rel, col));
    cols.push_back(attr);
  }
  return Scheme(std::move(cols));
}

Result<RelId> Database::AddRelation(
    const std::string& name, const std::vector<std::string>& column_names) {
  FRO_ASSIGN_OR_RETURN(Scheme scheme, Register(name, column_names));
  relations_.push_back(std::make_shared<Relation>(std::move(scheme)));
  generations_.push_back(0);
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  snapshots_.emplace_back();
  return static_cast<RelId>(relations_.size() - 1);
}

Result<RelId> Database::AddRelation(
    const std::string& name, const std::vector<std::string>& column_names,
    std::shared_ptr<const RelationSnapshot> source) {
  FRO_CHECK(source != nullptr);
  if (column_names.size() != source->relation().scheme().size()) {
    return InvalidArgument("relation " + name + " has " +
                           std::to_string(column_names.size()) +
                           " columns; its source has " +
                           std::to_string(source->relation().scheme().size()));
  }
  FRO_ASSIGN_OR_RETURN(Scheme scheme, Register(name, column_names));
  auto renamed = std::make_shared<Relation>(
      source->relation().Renamed(std::move(scheme)));
  relations_.push_back(renamed);
  generations_.push_back(source->generation());
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  snapshots_.push_back(
      std::make_shared<const RelationSnapshot>(*source, std::move(renamed)));
  return static_cast<RelId>(relations_.size() - 1);
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
  return AddRelation(new_name, columns, Snapshot(source));
}

void Database::SetRows(RelId rel, std::vector<Tuple> rows) {
  Relation* target = Writable(rel);
  *target = Relation(target->scheme(), std::move(rows));
}

void Database::AddRow(RelId rel, std::vector<Value> values) {
  Writable(rel)->AddRow(std::move(values));
}

uint64_t Database::generation(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  return generations_[rel];
}

const Relation& Database::relation(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  return *relations_[rel];
}

Relation* Database::mutable_relation(RelId rel) { return Writable(rel); }

std::shared_ptr<const RelationSnapshot> Database::Snapshot(RelId rel) const {
  FRO_CHECK_LT(rel, relations_.size());
  std::lock_guard<std::mutex> lock(*snapshot_mu_);
  std::shared_ptr<const RelationSnapshot>& slot = snapshots_[rel];
  if (slot == nullptr) {
    slot = std::make_shared<RelationSnapshot>(relations_[rel],
                                              generations_[rel]);
  }
  return slot;
}

Relation* Database::Writable(RelId rel) {
  FRO_CHECK_LT(rel, relations_.size());
  ++generations_[rel];
  {
    std::lock_guard<std::mutex> lock(*snapshot_mu_);
    snapshots_[rel].reset();
  }
  std::shared_ptr<Relation>& current = relations_[rel];
  // A snapshot someone still holds shares this version: copy on write,
  // so the holder keeps reading the rows it took.
  if (current.use_count() > 1) current = std::make_shared<Relation>(*current);
  return current.get();
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
