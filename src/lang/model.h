// The nested data model of Section 5: entities with identity (oids),
// repeating (set-valued) fields, and entity-valued fields.

#ifndef FRO_LANG_MODEL_H_
#define FRO_LANG_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/snapshot.h"
#include "relational/value.h"

namespace fro {

struct FieldDef {
  enum class Kind : uint8_t {
    kScalar,     // single value
    kSetValued,  // repeating field (UnNest's `*` operand)
    kEntityRef,  // entity-valued field (Link's `->` operand)
  };
  std::string name;
  Kind kind = Kind::kScalar;
  /// For kEntityRef: the referenced entity type's name.
  std::string target_type;
};

class EntityType {
 public:
  EntityType(std::string name, std::vector<FieldDef> fields)
      : name_(std::move(name)), fields_(std::move(fields)) {}

  const std::string& name() const { return name_; }
  const std::vector<FieldDef>& fields() const { return fields_; }
  /// Index of field `name`, or -1.
  int FieldIndex(const std::string& name) const;

 private:
  std::string name_;
  std::vector<FieldDef> fields_;
};

/// One field's content in an entity instance.
struct FieldValue {
  /// kScalar: the value. kEntityRef: the referenced entity's oid as
  /// Value::Int, or Null. kSetValued: unused.
  Value scalar;
  /// kSetValued: the elements (possibly empty).
  std::vector<Value> elements;

  static FieldValue Scalar(Value v) {
    FieldValue out;
    out.scalar = std::move(v);
    return out;
  }
  static FieldValue Ref(int64_t oid) { return Scalar(Value::Int(oid)); }
  static FieldValue NullRef() { return Scalar(Value::Null()); }
  static FieldValue Set(std::vector<Value> elements) {
    FieldValue out;
    out.elements = std::move(elements);
    return out;
  }
};

struct EntityRow {
  int64_t oid = 0;
  std::vector<FieldValue> fields;  // parallel to EntityType::fields()
};

/// One relation of the flattened form Section 5.2 translates into: an
/// entity type's table or one set-valued field's ValueOfField.
struct FlatRelation {
  /// The type's name, or `TYPE*Field` for a ValueOfField relation.
  std::string name;
  /// An entity relation: @oid, each scalar field, `<field>@ref` per
  /// entity-valued field. A ValueOfField relation: @owner, the field.
  std::vector<std::string> columns;
  /// The rows with their columns, statistics and derived structures.
  /// The scheme numbers the columns 0..n-1; a translation reads the
  /// relation through renamings (Database's aliasing AddRelation).
  std::shared_ptr<const RelationSnapshot> snapshot;
};

/// A database of entity tables, one per type. Oids are unique across the
/// whole NestedDb (they model "physical addresses", Section 5.2).
///
/// The flattened relations are built lazily, once per version of the
/// database, and shared: every translation's tuple variables are
/// renamings of them, so they share rows, columns, statistics, join
/// tables and tries across queries. DefineType and AddEntity start a new
/// version, dropping them; a translation that still holds one keeps
/// reading the version it took. Queries may run concurrently with each
/// other, not with DefineType or AddEntity.
class NestedDb {
 public:
  Status DefineType(const std::string& name, std::vector<FieldDef> fields);
  const EntityType* FindType(const std::string& name) const;

  /// Appends an entity; `fields` must parallel the type's field list.
  /// Returns the new entity's oid.
  Result<int64_t> AddEntity(const std::string& type_name,
                            std::vector<FieldValue> fields);

  const std::vector<EntityRow>& Rows(const std::string& type_name) const;

  /// The flattened relation of `type` (one of this database's types):
  /// its entity relation when `set_field` is negative, else the
  /// ValueOfField relation of its set-valued field at index `set_field`.
  /// Built on the version's first request; thread-safe.
  std::shared_ptr<const FlatRelation> Flatten(const EntityType& type,
                                              int set_field = -1) const;

  /// The flattened relations this version has built so far, in
  /// (type, field) order.
  std::vector<std::shared_ptr<const FlatRelation>> FlattenedRelations()
      const;

 private:
  /// Drops the flattened relations: the next version starts.
  void NewVersion();

  std::vector<EntityType> types_;
  std::unordered_map<std::string, size_t> type_index_;
  std::vector<std::vector<EntityRow>> rows_;  // parallel to types_
  int64_t next_oid_ = 1;
  /// Mutations so far; the flattened relations' generation, so the plan
  /// cache's data stamp moves with the database.
  uint64_t version_ = 0;
  /// Guards flat_. Behind a pointer so NestedDb stays movable.
  std::unique_ptr<std::mutex> flat_mu_ = std::make_unique<std::mutex>();
  /// The current version's flattened relations by (type index, set-valued
  /// field index or -1).
  mutable std::map<std::pair<size_t, int>,
                   std::shared_ptr<const FlatRelation>>
      flat_;
};

}  // namespace fro

#endif  // FRO_LANG_MODEL_H_
