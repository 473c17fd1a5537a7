#include "relational/snapshot.h"

#include "common/check.h"

namespace fro {

RelationSnapshot::RelationSnapshot(std::shared_ptr<const Relation> relation)
    : owner_(std::move(relation)),
      relation_(owner_.get()),
      columns_(new ColumnSlot[relation_->scheme().size()]) {}

RelationSnapshot::RelationSnapshot(const Relation* relation)
    : relation_(relation),
      columns_(new ColumnSlot[relation_->scheme().size()]) {}

const ColumnVector& RelationSnapshot::Column(size_t pos) const {
  FRO_CHECK(pos < relation_->scheme().size());
  ColumnSlot& slot = columns_[pos];
  if (!slot.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(column_mu_);
    if (!slot.ready.load(std::memory_order_relaxed)) {
      const std::vector<Tuple>& rows = relation_->rows();
      slot.column.Reserve(rows.size());
      for (const Tuple& row : rows) slot.column.Append(row.value(pos));
      slot.ready.store(true, std::memory_order_release);
    }
  }
  return slot.column;
}

const RelationStats& RelationSnapshot::stats() const {
  std::call_once(stats_once_,
                 [this] { stats_ = ComputeRelationStats(*relation_); });
  return stats_;
}

std::shared_ptr<const void> RelationSnapshot::GetOrBuild(
    const char* kind, const std::vector<AttrId>& keys,
    const std::function<Built()>& build) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(derived_mu_);
    std::shared_ptr<Entry>& slot = derived_[{kind, keys}];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->built.value == nullptr) {
    entry->built = build();
    builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry->built.value;
}

std::vector<SnapshotStructureInfo> RelationSnapshot::Structures() const {
  std::vector<std::pair<std::pair<std::string, std::vector<AttrId>>,
                        std::shared_ptr<Entry>>>
      entries;
  {
    std::lock_guard<std::mutex> lock(derived_mu_);
    entries.assign(derived_.begin(), derived_.end());
  }
  std::vector<SnapshotStructureInfo> out;
  for (const auto& [key, entry] : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->built.value == nullptr) continue;
    out.push_back(SnapshotStructureInfo{key.first, key.second,
                                        entry->built.rows,
                                        entry->built.bytes});
  }
  return out;
}

}  // namespace fro
