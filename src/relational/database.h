// A database: a catalog plus the ground relations' contents.

#ifndef FRO_RELATIONAL_DATABASE_H_
#define FRO_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/snapshot.h"

namespace fro {

/// Owns the catalog and one Relation per registered ground relation.
/// RelIds index into both.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Registers a relation with the given column names and an empty body.
  /// Returns its RelId.
  Result<RelId> AddRelation(const std::string& name,
                            const std::vector<std::string>& column_names);

  /// Registers a relation with the given column names whose body is
  /// `source`'s version, renamed (relational/snapshot.h): no row is
  /// copied, and its snapshot shares `source`'s columns, statistics and
  /// derived structures until the relation is first written. Its
  /// generation starts at `source`'s. `column_names` must match
  /// `source`'s arity.
  Result<RelId> AddRelation(const std::string& name,
                            const std::vector<std::string>& column_names,
                            std::shared_ptr<const RelationSnapshot> source);

  /// Registers a copy of `source` under `new_name` with renamed (freshly
  /// qualified) attributes and the same rows — the paper's "several
  /// copies of the same relation with renamed attributes" device for
  /// self-joins. An alias of `source`'s current snapshot: O(1).
  Result<RelId> CloneRelation(RelId source, const std::string& new_name);

  /// Replaces the body of a relation. The rows' arity must match.
  void SetRows(RelId rel, std::vector<Tuple> rows);
  void AddRow(RelId rel, std::vector<Value> values);

  /// The relation's current version.
  const Relation& relation(RelId rel) const;
  /// Write access to the relation. The handout counts as a mutation: it
  /// drops the snapshot, and a snapshot still held elsewhere keeps the
  /// old rows (the relation is copied first). Write through the pointer
  /// before the relation's next Snapshot(): later writes would change
  /// rows that snapshot shares.
  Relation* mutable_relation(RelId rel);
  const Scheme& scheme(RelId rel) const { return relation(rel).scheme(); }

  /// Monotone per-relation mutation counter: bumped by SetRows, AddRow,
  /// and every mutable_relation() handout; an aliasing AddRelation
  /// starts it at its source's. Its one user is the plan
  /// cache's data stamp (optimizer/feedback.cc), which re-plans a query
  /// once a relation it reads has changed.
  uint64_t generation(RelId rel) const;

  /// The relation's current version with its column mirror, statistics
  /// and derived structures (relational/snapshot.h), created on first
  /// request and shared by every query over this version; an aliasing
  /// AddRelation's is a renaming of its source. SetRows, AddRow and
  /// mutable_relation drop the relation's own; registering a relation
  /// leaves every other one's in place. A holder keeps its snapshot
  /// valid across later mutations; it just describes the old version.
  /// Thread-safe against concurrent Snapshot calls (concurrent queries),
  /// under the usual contract that mutation does not race query
  /// execution.
  std::shared_ptr<const RelationSnapshot> Snapshot(RelId rel) const;

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }
  size_t num_relations() const { return relations_.size(); }

  /// Looks up attribute `rel_name.attr_name`; CHECK-fails if absent (this
  /// is the test/example convenience accessor).
  AttrId Attr(const std::string& rel_name, const std::string& attr_name) const;
  /// Looks up a relation id by name; CHECK-fails if absent.
  RelId Rel(const std::string& name) const;

 private:
  /// The relation made safe to write in place: drops its snapshot, bumps
  /// its generation, and copies it if a held snapshot still shares it.
  Relation* Writable(RelId rel);
  /// Registers `name` with `column_names`; the relation, generation and
  /// snapshot slots are the caller's to push.
  Result<Scheme> Register(const std::string& name,
                          const std::vector<std::string>& column_names);

  Catalog catalog_;
  /// Current versions. Shared with the snapshots taken of them, so a
  /// snapshot outlives the version's replacement.
  std::vector<std::shared_ptr<Relation>> relations_;
  /// Parallel to relations_: mutation generation per relation.
  std::vector<uint64_t> generations_;
  /// Parallel to relations_: the current version's snapshot, or null
  /// until first requested.
  mutable std::vector<std::shared_ptr<const RelationSnapshot>> snapshots_;
  /// Guards snapshots_. Per Database, so sessions that each translate
  /// into their own Database never contend on it; behind a pointer so
  /// Database stays movable.
  std::unique_ptr<std::mutex> snapshot_mu_ = std::make_unique<std::mutex>();
};

}  // namespace fro

#endif  // FRO_RELATIONAL_DATABASE_H_
