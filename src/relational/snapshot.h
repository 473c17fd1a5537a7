// One immutable relation version and everything derived from it.
//
// Database hands out one RelationSnapshot per base-relation version
// (Database::Snapshot) and drops it when the relation mutates; whoever
// still holds it keeps reading the version it took. A snapshot carries
// three lazily-built layers over its rows, each built once and then
// shared by every query that reads this version:
//
//   - the column mirror: per-position ColumnVectors the batch kernels
//     read (a scan's view batches point here);
//   - the statistics the cardinality estimator reads, one per position;
//   - derived structures keyed by (kind, key positions): the join build
//     side's key table, the leapfrog operand's trie, the evaluator's hash
//     index. The snapshot stores them type-erased, so this layer does not
//     depend on the executors that define them.
//
// The layers form the snapshot's body, which knows rows and positions
// but no attribute ids. A renamed snapshot (the aliasing constructor)
// puts another scheme of the same arity over the same body: one version
// then serves every tuple variable that reads it, the paper's "several
// copies of the same relation with renamed attributes" (Section 1.2),
// and every copy reuses the columns, statistics and structures the
// others built.
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
  std::vector<size_t> key_positions;  // scheme positions, in key order
  size_t rows = 0;   // rows the structure indexes
  size_t bytes = 0;  // its heap footprint, approximately
  const void* address = nullptr;  // the structure itself (identity)
};

class RelationSnapshot {
 public:
  /// A snapshot sharing ownership of `relation`: Database's versions.
  /// `generation` is the version's Database::generation.
  explicit RelationSnapshot(std::shared_ptr<const Relation> relation,
                            uint64_t generation = 0);
  /// A private mirror over `relation`, which must outlive the snapshot
  /// and stay unchanged while it lives.
  explicit RelationSnapshot(const Relation* relation);
  /// `source`'s version under renamed attributes: `renamed` is a
  /// Relation::Renamed of it (same rows, same arity, another scheme).
  /// The same columns, statistics, derived structures and build counter
  /// serve both. Copies no row.
  RelationSnapshot(const RelationSnapshot& source,
                   std::shared_ptr<const Relation> renamed);
  RelationSnapshot(const RelationSnapshot&) = delete;
  RelationSnapshot& operator=(const RelationSnapshot&) = delete;

  /// The version under this snapshot's scheme.
  const Relation& relation() const { return *relation_; }

  /// The version's Database::generation when the snapshot was taken.
  uint64_t generation() const { return body_->generation; }

  /// True when both snapshots read one body (one is a renaming of the
  /// other, or both rename one version).
  bool SharesBodyWith(const RelationSnapshot& other) const {
    return body_ == other.body_;
  }

  /// The columnized attribute at scheme position `pos`, transposed on
  /// first request. Safe for concurrent callers (morsel workers):
  /// builders serialize on a mutex, readers go lock-free through a
  /// per-column acquire/release flag.
  const ColumnVector& Column(size_t pos) const;

  /// Per-attribute statistics (ComputeRelationStats), computed on first
  /// request.
  const RelationStats& stats() const;

  /// The structure of `kind` on the key columns at `key_positions`
  /// (scheme positions, so every renaming of the body finds it), built
  /// by `build()` on first request and shared afterwards. `build` returns a
  /// std::shared_ptr<const T> where T has num_rows() and bytes(); each
  /// kind names exactly one T. Concurrent first requests for one
  /// structure build it once; other structures are not blocked meanwhile.
  /// A structure may read the snapshot's rows, so whoever holds it holds
  /// the snapshot too (a scan in the same pipeline does).
  template <typename T, typename Build>
  std::shared_ptr<const T> Derived(const char* kind,
                                   const std::vector<size_t>& key_positions,
                                   Build&& build) const {
    return std::static_pointer_cast<const T>(
        GetOrBuild(kind, key_positions, [&build]() {
          std::shared_ptr<const T> built = build();
          return Built{built, built->num_rows(), built->bytes()};
        }));
  }

  /// Every derived structure built so far, in (kind, key positions)
  /// order.
  std::vector<SnapshotStructureInfo> Structures() const;

  /// Derived structures built over the body's lifetime, through this
  /// snapshot or any renaming of it.
  uint64_t builds() const {
    return body_->builds.load(std::memory_order_relaxed);
  }
  /// Columns transposed over the body's lifetime.
  uint64_t column_builds() const {
    return body_->column_builds.load(std::memory_order_relaxed);
  }

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

  /// Everything keyed by position, shared by a snapshot and its
  /// renamings.
  struct Body {
    Body(std::shared_ptr<const Relation> owner, const Relation* relation,
         uint64_t generation);

    std::shared_ptr<const Relation> owner;  // null for a private mirror
    const Relation* relation;               // the rows, read by position
    uint64_t generation = 0;
    std::mutex column_mu;
    std::unique_ptr<ColumnSlot[]> columns;
    std::once_flag stats_once;
    RelationStats stats;
    std::mutex derived_mu;  // guards derived, not the entries
    std::map<std::pair<std::string, std::vector<size_t>>,
             std::shared_ptr<Entry>>
        derived;
    std::atomic<uint64_t> builds{0};
    std::atomic<uint64_t> column_builds{0};
  };

  std::shared_ptr<const void> GetOrBuild(
      const char* kind, const std::vector<size_t>& key_positions,
      const std::function<Built()>& build) const;

  std::shared_ptr<Body> body_;
  std::shared_ptr<const Relation> renamed_;  // a renaming's; else null
  const Relation* relation_;  // body_->relation or renamed_
};

}  // namespace fro

#endif  // FRO_RELATIONAL_SNAPSHOT_H_
