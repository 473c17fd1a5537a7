#include "relational/schema.h"

#include <algorithm>

#include "common/check.h"

namespace fro {

AttrSet::AttrSet(std::vector<AttrId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

bool AttrSet::Contains(AttrId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool AttrSet::ContainsAll(const AttrSet& other) const {
  return std::includes(ids_.begin(), ids_.end(), other.ids_.begin(),
                       other.ids_.end());
}

bool AttrSet::Overlaps(const AttrSet& other) const {
  auto it = ids_.begin();
  auto jt = other.ids_.begin();
  while (it != ids_.end() && jt != other.ids_.end()) {
    if (*it == *jt) return true;
    if (*it < *jt) {
      ++it;
    } else {
      ++jt;
    }
  }
  return false;
}

AttrSet AttrSet::Union(const AttrSet& other) const {
  std::vector<AttrId> out;
  out.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out));
  AttrSet result;
  result.ids_ = std::move(out);
  return result;
}

AttrSet AttrSet::Intersect(const AttrSet& other) const {
  std::vector<AttrId> out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out));
  AttrSet result;
  result.ids_ = std::move(out);
  return result;
}

AttrSet AttrSet::Subtract(const AttrSet& other) const {
  std::vector<AttrId> out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out));
  AttrSet result;
  result.ids_ = std::move(out);
  return result;
}

void AttrSet::Insert(AttrId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) ids_.insert(it, id);
}

Scheme::Scheme(std::vector<AttrId> cols) : cols_(std::move(cols)) {
  index_.reserve(cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    index_.emplace_back(cols_[i], static_cast<int>(i));
  }
  std::sort(index_.begin(), index_.end());
  for (size_t i = 1; i < index_.size(); ++i) {
    FRO_CHECK(index_[i - 1].first != index_[i].first)
        << "duplicate attribute " << index_[i].first << " in scheme";
  }
}

int Scheme::IndexOf(AttrId id) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const std::pair<AttrId, int>& entry, AttrId key) {
        return entry.first < key;
      });
  return it == index_.end() || it->first != id ? -1 : it->second;
}

std::vector<size_t> Scheme::PositionsOf(const std::vector<AttrId>& ids) const {
  std::vector<size_t> out;
  out.reserve(ids.size());
  for (AttrId id : ids) {
    const int pos = IndexOf(id);
    FRO_CHECK_GE(pos, 0) << "attribute " << id << " not in scheme";
    out.push_back(static_cast<size_t>(pos));
  }
  return out;
}

Scheme Scheme::Concat(const Scheme& other) const {
  std::vector<AttrId> cols = cols_;
  cols.insert(cols.end(), other.cols_.begin(), other.cols_.end());
  return Scheme(std::move(cols));  // ctor checks disjointness
}

AttrSet Scheme::ToAttrSet() const { return AttrSet(cols_); }

Result<RelId> Catalog::RegisterRelation(const std::string& name) {
  if (rel_by_name_.count(name) > 0) {
    return InvalidArgument("relation already registered: " + name);
  }
  RelId id = static_cast<RelId>(rel_names_.size());
  rel_names_.push_back(name);
  rel_attrs_.emplace_back();
  rel_by_name_.emplace(name, id);
  return id;
}

Result<AttrId> Catalog::RegisterAttr(RelId rel, const std::string& attr_name) {
  if (rel >= rel_names_.size()) {
    return InvalidArgument("unknown relation id");
  }
  std::string qualified = rel_names_[rel] + "." + attr_name;
  if (attr_by_name_.count(qualified) > 0) {
    return InvalidArgument("attribute already registered: " + qualified);
  }
  AttrId id = static_cast<AttrId>(attr_names_.size());
  attr_names_.push_back(qualified);
  attr_rel_.push_back(rel);
  rel_attrs_[rel].push_back(id);
  attr_by_name_.emplace(std::move(qualified), id);
  return id;
}

Status Catalog::CheckRegistration(
    const std::string& name, const std::vector<std::string>& attr_names) const {
  if (rel_by_name_.count(name) > 0) {
    return InvalidArgument("relation already registered: " + name);
  }
  std::string qualified = name + ".";
  const size_t prefix = qualified.size();
  for (size_t i = 0; i < attr_names.size(); ++i) {
    const std::string& attr = attr_names[i];
    qualified.resize(prefix);
    qualified += attr;
    const auto earlier = attr_names.begin() + static_cast<std::ptrdiff_t>(i);
    if (attr_by_name_.count(qualified) > 0 ||
        std::find(attr_names.begin(), earlier, attr) != earlier) {
      return InvalidArgument("attribute already registered: " + qualified);
    }
  }
  return Status::Ok();
}

Result<RelId> Catalog::FindRelation(const std::string& name) const {
  auto it = rel_by_name_.find(name);
  if (it == rel_by_name_.end()) return NotFound("relation " + name);
  return it->second;
}

Result<AttrId> Catalog::FindAttr(const std::string& rel_name,
                                 const std::string& attr_name) const {
  auto it = attr_by_name_.find(rel_name + "." + attr_name);
  if (it == attr_by_name_.end()) {
    return NotFound("attribute " + rel_name + "." + attr_name);
  }
  return it->second;
}

const std::string& Catalog::RelationName(RelId rel) const {
  FRO_CHECK(rel < rel_names_.size());
  return rel_names_[rel];
}

const std::string& Catalog::AttrName(AttrId id) const {
  FRO_CHECK(id < attr_names_.size());
  return attr_names_[id];
}

RelId Catalog::AttrRelation(AttrId id) const {
  FRO_CHECK(id < attr_rel_.size());
  return attr_rel_[id];
}

const std::vector<AttrId>& Catalog::RelationAttrs(RelId rel) const {
  FRO_CHECK(rel < rel_attrs_.size());
  return rel_attrs_[rel];
}

}  // namespace fro
