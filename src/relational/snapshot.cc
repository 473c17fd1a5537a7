#include "relational/snapshot.h"

#include "common/check.h"

namespace fro {

RelationSnapshot::Body::Body(std::shared_ptr<const Relation> owner_in,
                             const Relation* relation_in,
                             uint64_t generation_in)
    : owner(std::move(owner_in)),
      relation(relation_in),
      generation(generation_in),
      columns(new ColumnSlot[relation->scheme().size()]) {}

RelationSnapshot::RelationSnapshot(std::shared_ptr<const Relation> relation,
                                   uint64_t generation)
    : body_(std::make_shared<Body>(relation, relation.get(), generation)),
      relation_(body_->relation) {}

RelationSnapshot::RelationSnapshot(const Relation* relation)
    : body_(std::make_shared<Body>(nullptr, relation, 0)),
      relation_(relation) {}

RelationSnapshot::RelationSnapshot(const RelationSnapshot& source,
                                   std::shared_ptr<const Relation> renamed)
    : body_(source.body_),
      renamed_(std::move(renamed)),
      relation_(renamed_.get()) {
  FRO_CHECK(&relation_->rows() == &body_->relation->rows() &&
            relation_->scheme().size() == body_->relation->scheme().size())
      << "a renamed snapshot reads its source's rows";
}

const ColumnVector& RelationSnapshot::Column(size_t pos) const {
  Body& body = *body_;
  FRO_CHECK(pos < body.relation->scheme().size());
  ColumnSlot& slot = body.columns[pos];
  if (!slot.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(body.column_mu);
    if (!slot.ready.load(std::memory_order_relaxed)) {
      const std::vector<Tuple>& rows = body.relation->rows();
      slot.column.Reserve(rows.size());
      for (const Tuple& row : rows) slot.column.Append(row.value(pos));
      body.column_builds.fetch_add(1, std::memory_order_relaxed);
      slot.ready.store(true, std::memory_order_release);
    }
  }
  return slot.column;
}

const RelationStats& RelationSnapshot::stats() const {
  Body& body = *body_;
  std::call_once(body.stats_once, [&body] {
    body.stats = ComputeRelationStats(*body.relation);
  });
  return body.stats;
}

std::shared_ptr<const void> RelationSnapshot::GetOrBuild(
    const char* kind, const std::vector<size_t>& key_positions,
    const std::function<Built()>& build) const {
  Body& body = *body_;
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(body.derived_mu);
    std::shared_ptr<Entry>& slot = body.derived[{kind, key_positions}];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->built.value == nullptr) {
    entry->built = build();
    body.builds.fetch_add(1, std::memory_order_relaxed);
  }
  return entry->built.value;
}

std::vector<SnapshotStructureInfo> RelationSnapshot::Structures() const {
  std::vector<std::pair<std::pair<std::string, std::vector<size_t>>,
                        std::shared_ptr<Entry>>>
      entries;
  {
    std::lock_guard<std::mutex> lock(body_->derived_mu);
    entries.assign(body_->derived.begin(), body_->derived.end());
  }
  std::vector<SnapshotStructureInfo> out;
  for (const auto& [key, entry] : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->built.value == nullptr) continue;
    out.push_back(SnapshotStructureInfo{key.first, key.second,
                                        entry->built.rows, entry->built.bytes,
                                        entry->built.value.get()});
  }
  return out;
}

}  // namespace fro
