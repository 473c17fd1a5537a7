// One immutable relation version and everything derived from it.
//
// Database hands out one RelationSnapshot per base-relation version
// (Database::Snapshot) and drops it when the relation mutates; whoever
// still holds it keeps reading the version it took. A snapshot carries
// three lazily-built layers over its rows, each built once and then
// shared by every query that reads this version:
//
//   - the column mirror: per-attribute ColumnVectors the batch kernels
//     read (a scan's view batches point here);
//   - the statistics the cardinality estimator reads;
//   - derived structures keyed by (kind, key attributes): the join build
//     side's key table, the leapfrog operand's trie, the evaluator's hash
//     index. The snapshot stores them type-erased, so this layer does not
//     depend on the executors that define them.
//
// The same class serves as a private column mirror over any relation
// that stays unchanged while the mirror lives (a drained build side, a
// scan over a test's relation).

#ifndef FRO_RELATIONAL_SNAPSHOT_H_
#define FRO_RELATIONAL_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "relational/column.h"
#include "relational/relation.h"
#include "relational/stats.h"

namespace fro {

/// One derived structure of a snapshot, for listings (the shell's
/// \indexes).
struct SnapshotStructureInfo {
  std::string kind;
  std::vector<AttrId> keys;
  size_t rows = 0;   // rows the structure indexes
  size_t bytes = 0;  // its heap footprint, approximately
};

class RelationSnapshot {
 public:
  /// A snapshot sharing ownership of `relation`: Database's versions.
  explicit RelationSnapshot(std::shared_ptr<const Relation> relation);
  /// A private mirror over `relation`, which must outlive the snapshot
  /// and stay unchanged while it lives.
  explicit RelationSnapshot(const Relation* relation);
  RelationSnapshot(const RelationSnapshot&) = delete;
  RelationSnapshot& operator=(const RelationSnapshot&) = delete;

  const Relation& relation() const { return *relation_; }

  /// The columnized attribute at scheme position `pos`, transposed on
  /// first request. Safe for concurrent callers (morsel workers):
  /// builders serialize on a mutex, readers go lock-free through a
  /// per-column acquire/release flag.
  const ColumnVector& Column(size_t pos) const;

  /// Per-attribute statistics (ComputeRelationStats), computed on first
  /// request.
  const RelationStats& stats() const;

  /// The structure of `kind` on `keys`, built by `build()` on first
  /// request and shared afterwards. `build` returns a
  /// std::shared_ptr<const T> where T has num_rows() and bytes(); each
  /// kind names exactly one T. Concurrent first requests for one
  /// structure build it once; other structures are not blocked meanwhile.
  /// A structure may read the snapshot's rows, so whoever holds it holds
  /// the snapshot too (a scan in the same pipeline does).
  template <typename T, typename Build>
  std::shared_ptr<const T> Derived(const char* kind,
                                   const std::vector<AttrId>& keys,
                                   Build&& build) const {
    return std::static_pointer_cast<const T>(
        GetOrBuild(kind, keys, [&build]() {
          std::shared_ptr<const T> built = build();
          return Built{built, built->num_rows(), built->bytes()};
        }));
  }

  /// Every derived structure built so far, in (kind, keys) order.
  std::vector<SnapshotStructureInfo> Structures() const;

  /// Derived structures built over this snapshot's lifetime.
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  struct Built {
    std::shared_ptr<const void> value;
    size_t rows = 0;
    size_t bytes = 0;
  };
  struct Entry {
    std::mutex mu;  // held while building, so the build runs once
    Built built;
  };
  struct ColumnSlot {
    std::atomic<bool> ready{false};
    ColumnVector column;
  };

  std::shared_ptr<const void> GetOrBuild(
      const char* kind, const std::vector<AttrId>& keys,
      const std::function<Built()>& build) const;

  std::shared_ptr<const Relation> owner_;  // null for a private mirror
  const Relation* relation_;
  mutable std::mutex column_mu_;
  std::unique_ptr<ColumnSlot[]> columns_;
  mutable std::once_flag stats_once_;
  mutable RelationStats stats_;
  mutable std::mutex derived_mu_;  // guards derived_, not the entries
  mutable std::map<std::pair<std::string, std::vector<AttrId>>,
                   std::shared_ptr<Entry>>
      derived_;
  mutable std::atomic<uint64_t> builds_{0};
};

}  // namespace fro

#endif  // FRO_RELATIONAL_SNAPSHOT_H_
