#include "lang/model.h"

#include "common/check.h"

namespace fro {

namespace {

/// A flattened relation's scheme: its columns numbered 0..n-1.
Scheme PositionalScheme(size_t n) {
  std::vector<AttrId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<AttrId>(i);
  return Scheme(std::move(ids));
}

/// The entity relation of `type` over `rows`.
FlatRelation FlattenEntities(const EntityType& type,
                             const std::vector<EntityRow>& rows,
                             uint64_t generation) {
  FlatRelation out;
  out.name = type.name();
  out.columns.push_back("@oid");
  std::vector<size_t> fields;  // the fields with a column, in order
  for (size_t f = 0; f < type.fields().size(); ++f) {
    const FieldDef& field = type.fields()[f];
    switch (field.kind) {
      case FieldDef::Kind::kScalar:
        out.columns.push_back(field.name);
        break;
      case FieldDef::Kind::kEntityRef:
        out.columns.push_back(field.name + "@ref");
        break;
      case FieldDef::Kind::kSetValued:
        continue;  // repeating fields live in their own virtual relation
    }
    fields.push_back(f);
  }
  std::vector<Tuple> tuples;
  tuples.reserve(rows.size());
  for (const EntityRow& row : rows) {
    std::vector<Value> values;
    values.reserve(fields.size() + 1);
    values.push_back(Value::Int(row.oid));
    for (size_t f : fields) values.push_back(row.fields[f].scalar);
    tuples.emplace_back(std::move(values));
  }
  out.snapshot = std::make_shared<const RelationSnapshot>(
      std::make_shared<const Relation>(
          PositionalScheme(out.columns.size()), std::move(tuples)),
      generation);
  return out;
}

/// The virtual ValueOfField relation of `type`'s set-valued field
/// `field_index`: one row (@owner, value) per element of each owner's
/// set.
FlatRelation FlattenValueOfField(const EntityType& type, size_t field_index,
                                 const std::vector<EntityRow>& rows,
                                 uint64_t generation) {
  const FieldDef& field = type.fields()[field_index];
  FlatRelation out;
  out.name = type.name() + "*" + field.name;
  out.columns = {"@owner", field.name};
  std::vector<Tuple> tuples;
  for (const EntityRow& row : rows) {
    for (const Value& element : row.fields[field_index].elements) {
      tuples.emplace_back(std::vector<Value>{Value::Int(row.oid), element});
    }
  }
  out.snapshot = std::make_shared<const RelationSnapshot>(
      std::make_shared<const Relation>(PositionalScheme(2),
                                       std::move(tuples)),
      generation);
  return out;
}

}  // namespace

int EntityType::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status NestedDb::DefineType(const std::string& name,
                            std::vector<FieldDef> fields) {
  if (type_index_.count(name) > 0) {
    return InvalidArgument("entity type already defined: " + name);
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (fields[j].name == fields[i].name) {
        return InvalidArgument("duplicate field " + fields[i].name +
                               " in entity type " + name);
      }
    }
  }
  type_index_.emplace(name, types_.size());
  types_.emplace_back(name, std::move(fields));
  rows_.emplace_back();
  NewVersion();
  return Status::Ok();
}

const EntityType* NestedDb::FindType(const std::string& name) const {
  auto it = type_index_.find(name);
  return it == type_index_.end() ? nullptr : &types_[it->second];
}

Result<int64_t> NestedDb::AddEntity(const std::string& type_name,
                                    std::vector<FieldValue> fields) {
  auto it = type_index_.find(type_name);
  if (it == type_index_.end()) {
    return NotFound("entity type " + type_name);
  }
  const EntityType& type = types_[it->second];
  if (fields.size() != type.fields().size()) {
    return InvalidArgument("field count mismatch for " + type_name);
  }
  EntityRow row;
  row.oid = next_oid_++;
  row.fields = std::move(fields);
  rows_[it->second].push_back(std::move(row));
  NewVersion();
  return rows_[it->second].back().oid;
}

const std::vector<EntityRow>& NestedDb::Rows(
    const std::string& type_name) const {
  auto it = type_index_.find(type_name);
  FRO_CHECK(it != type_index_.end()) << "unknown entity type " << type_name;
  return rows_[it->second];
}

void NestedDb::NewVersion() {
  ++version_;
  std::lock_guard<std::mutex> lock(*flat_mu_);
  flat_.clear();
}

std::shared_ptr<const FlatRelation> NestedDb::Flatten(const EntityType& type,
                                                      int set_field) const {
  const auto it = type_index_.find(type.name());
  FRO_CHECK(it != type_index_.end() && &types_[it->second] == &type)
      << "entity type " << type.name() << " is not this database's";
  std::lock_guard<std::mutex> lock(*flat_mu_);
  std::shared_ptr<const FlatRelation>& slot = flat_[{it->second, set_field}];
  if (slot == nullptr) {
    const std::vector<EntityRow>& rows = rows_[it->second];
    if (set_field < 0) {
      slot = std::make_shared<const FlatRelation>(
          FlattenEntities(type, rows, version_));
    } else {
      FRO_CHECK_LT(static_cast<size_t>(set_field), type.fields().size());
      FRO_CHECK(type.fields()[static_cast<size_t>(set_field)].kind ==
                FieldDef::Kind::kSetValued);
      slot = std::make_shared<const FlatRelation>(FlattenValueOfField(
          type, static_cast<size_t>(set_field), rows, version_));
    }
  }
  return slot;
}

std::vector<std::shared_ptr<const FlatRelation>>
NestedDb::FlattenedRelations() const {
  std::lock_guard<std::mutex> lock(*flat_mu_);
  std::vector<std::shared_ptr<const FlatRelation>> out;
  out.reserve(flat_.size());
  for (const auto& [key, flat] : flat_) out.push_back(flat);
  return out;
}

}  // namespace fro
