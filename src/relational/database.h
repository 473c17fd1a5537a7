// A database: a catalog plus the ground relations' contents.

#ifndef FRO_RELATIONAL_DATABASE_H_
#define FRO_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/column.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/stats.h"

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

  /// Registers a copy of `source` under `new_name` with renamed (freshly
  /// qualified) attributes and the same rows — the paper's "several
  /// copies of the same relation with renamed attributes" device for
  /// self-joins.
  Result<RelId> CloneRelation(RelId source, const std::string& new_name);

  /// Replaces the body of a relation. The rows' arity must match.
  void SetRows(RelId rel, std::vector<Tuple> rows);
  void AddRow(RelId rel, std::vector<Value> values);

  const Relation& relation(RelId rel) const;
  Relation* mutable_relation(RelId rel);
  const Scheme& scheme(RelId rel) const { return relation(rel).scheme(); }

  /// Monotone per-relation mutation counter: bumped by SetRows, AddRow,
  /// and every mutable_relation() handout. Index structures snapshot the
  /// generation they were built at so stale snapshots are detectable
  /// (IndexManager refuses to serve them).
  uint64_t generation(RelId rel) const;

  /// Lazily-columnized mirror of `rel`'s rows, built on first request
  /// and shared by every scan over this database afterwards — the
  /// transpose is paid once per relation, not once per plan build.
  /// Thread-safe against concurrent CachedColumns calls (concurrent
  /// queries); mutating the relation through this Database's API drops
  /// the cached mirror, under the usual contract that mutation does not
  /// race query execution (scans already hold `rows()` by reference).
  std::shared_ptr<RelationColumns> CachedColumns(RelId rel) const;

  /// `rel`'s per-attribute statistics (ComputeRelationStats), computed
  /// on first request and kept until the relation next mutates, under
  /// the same lock and the same invalidation points as CachedColumns.
  /// A caller holding the returned snapshot keeps it valid across later
  /// mutations; it just describes the old version.
  std::shared_ptr<const RelationStats> CachedStats(RelId rel) const;

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }
  size_t num_relations() const { return relations_.size(); }

  /// Looks up attribute `rel_name.attr_name`; CHECK-fails if absent (this
  /// is the test/example convenience accessor).
  AttrId Attr(const std::string& rel_name, const std::string& attr_name) const;
  /// Looks up a relation id by name; CHECK-fails if absent.
  RelId Rel(const std::string& name) const;

 private:
  /// Forgets cached column mirrors and statistics: the affected slot on
  /// row mutation, every slot when relations_ may have reallocated
  /// (AddRelation).
  void InvalidateCaches(RelId rel);
  void InvalidateAllCaches();

  Catalog catalog_;
  std::vector<Relation> relations_;
  /// Parallel to relations_: mutation generation per relation.
  std::vector<uint64_t> generations_;
  /// Parallel to relations_. Mirrors hold `const Relation*` into
  /// relations_, which stays stable under Database moves (the vector's
  /// heap buffer moves wholesale) but not under AddRelation
  /// reallocation — hence InvalidateAllCaches there.
  mutable std::vector<std::shared_ptr<RelationColumns>> columns_cache_;
  /// Parallel to relations_; snapshots own their data.
  mutable std::vector<std::shared_ptr<const RelationStats>> stats_cache_;
  /// Guards columns_cache_ and stats_cache_. Per Database, so sessions
  /// that each translate into their own Database never contend on it;
  /// behind a pointer so Database stays movable.
  std::unique_ptr<std::mutex> cache_mu_ = std::make_unique<std::mutex>();
};

}  // namespace fro

#endif  // FRO_RELATIONAL_DATABASE_H_
