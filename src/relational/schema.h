// Attribute identifiers, attribute sets, schemes, and the catalog.
//
// The paper assumes a database is "a set of relations whose schemes are
// mutually disjoint" (ground relations). The Catalog interns every
// attribute as `<relation>.<attribute>` and assigns it a dense AttrId, so
// disjointness holds by construction; tuples from different relations can
// be concatenated without renaming.

#ifndef FRO_RELATIONAL_SCHEMA_H_
#define FRO_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fro {

/// Dense identifier of an interned attribute.
using AttrId = uint32_t;
/// Dense identifier of a registered relation (ground relation / variable).
using RelId = uint32_t;

/// A sorted, duplicate-free set of attribute ids with set algebra.
class AttrSet {
 public:
  AttrSet() = default;
  /// Builds from an arbitrary list (sorted and deduplicated).
  explicit AttrSet(std::vector<AttrId> ids);

  static AttrSet Of(std::initializer_list<AttrId> ids) {
    return AttrSet(std::vector<AttrId>(ids));
  }

  bool empty() const { return ids_.empty(); }
  size_t size() const { return ids_.size(); }
  bool Contains(AttrId id) const;
  bool ContainsAll(const AttrSet& other) const;
  bool Overlaps(const AttrSet& other) const;

  AttrSet Union(const AttrSet& other) const;
  AttrSet Intersect(const AttrSet& other) const;
  AttrSet Subtract(const AttrSet& other) const;

  void Insert(AttrId id);

  const std::vector<AttrId>& ids() const { return ids_; }
  auto begin() const { return ids_.begin(); }
  auto end() const { return ids_.end(); }

  bool operator==(const AttrSet& other) const { return ids_ == other.ids_; }

 private:
  std::vector<AttrId> ids_;  // sorted, unique
};

/// An *ordered* list of distinct attributes: the column layout of a
/// relation or intermediate result.
class Scheme {
 public:
  Scheme() = default;
  /// Columns must be distinct.
  explicit Scheme(std::vector<AttrId> cols);

  size_t size() const { return cols_.size(); }
  bool empty() const { return cols_.empty(); }
  AttrId col(size_t i) const { return cols_[i]; }
  const std::vector<AttrId>& cols() const { return cols_; }

  /// Position of `id`, or -1 if absent.
  int IndexOf(AttrId id) const;
  bool Contains(AttrId id) const { return IndexOf(id) >= 0; }
  /// Positions of `ids`, in their order; each must be in the scheme.
  std::vector<size_t> PositionsOf(const std::vector<AttrId>& ids) const;

  /// Concatenation; the operand schemes must be disjoint.
  Scheme Concat(const Scheme& other) const;

  AttrSet ToAttrSet() const;

  bool operator==(const Scheme& other) const { return cols_ == other.cols_; }

 private:
  std::vector<AttrId> cols_;
  /// (id, position) sorted by id: one allocation however wide the
  /// scheme, and a binary search per lookup.
  std::vector<std::pair<AttrId, int>> index_;
};

/// Interns relation and attribute names. One catalog per Database.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers a relation name; fails if already present.
  Result<RelId> RegisterRelation(const std::string& name);

  /// Registers attribute `rel.attr`; fails if already present or if `rel`
  /// is unknown.
  Result<AttrId> RegisterAttr(RelId rel, const std::string& attr_name);

  Result<RelId> FindRelation(const std::string& name) const;
  /// Finds `rel.attr` by names.
  Result<AttrId> FindAttr(const std::string& rel_name,
                          const std::string& attr_name) const;

  size_t num_relations() const { return rel_names_.size(); }
  size_t num_attrs() const { return attr_names_.size(); }

  const std::string& RelationName(RelId rel) const;
  /// Qualified name "rel.attr".
  const std::string& AttrName(AttrId id) const;
  /// The relation an attribute belongs to.
  RelId AttrRelation(AttrId id) const;
  /// All attributes of a relation, in registration order.
  const std::vector<AttrId>& RelationAttrs(RelId rel) const;

 private:
  std::vector<std::string> rel_names_;
  std::unordered_map<std::string, RelId> rel_by_name_;
  std::vector<std::string> attr_names_;       // qualified
  std::vector<RelId> attr_rel_;               // AttrId -> RelId
  std::vector<std::vector<AttrId>> rel_attrs_;  // RelId -> attrs
  std::unordered_map<std::string, AttrId> attr_by_name_;
};

}  // namespace fro

#endif  // FRO_RELATIONAL_SCHEMA_H_
