// NestedDb's shared flattened relations (lang/model.h): a translation
// registers its tuple variables as renamings of them and copies no row;
// a repeated query builds nothing and reuses the same columns, join
// tables and tries; DefineType and AddEntity start a new version; and a
// concurrent first use builds each flattened relation, column and
// structure exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lang/lang.h"
#include "optimizer/feedback.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

/// The 14 Section-5 queries of the planning and serving workloads: six
/// cheap ones, then five- and seven-way self-joins.
std::vector<std::string> Section5Queries() {
  const std::string five =
      "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
      "DEPARTMENT D2, EMPLOYEE E3 "
      "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
      "and E3.D# = D2.D#";
  const std::string seven =
      "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
      "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
      "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
      "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
      "and D3.D# = E3.D#";
  return {
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      "Select All From DEPARTMENT-->Manager-->Audit",
      "Select All From DEPARTMENT-->Manager*ChildName "
      "Where DEPARTMENT.Location = 'Zurich'",
      "Select All From EMPLOYEE Where EMPLOYEE.Rank = 12",
      "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Secretary "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      "Select EMPLOYEE.Rank, DEPARTMENT.Location From EMPLOYEE, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      five,
      five + " and D1.Location = 'Queretaro'",
      five + " and D1.Location = 'Lisbon'",
      seven,
      seven + " and D3.Location = 'Zurich'",
      seven + " and D3.Location = 'Osaka'",
      seven + " and D3.Location = 'Toronto'",
      seven + " and D3.Location = 'Paris'",
  };
}

QueryRunResult MustRun(const NestedDb& db, const std::string& text) {
  Result<QueryRunResult> run = RunQuery(db, text);
  EXPECT_TRUE(run.ok()) << text << ": " << run.status().ToString();
  return run.ok() ? std::move(*run) : QueryRunResult();
}

/// What one flattened relation has built so far.
struct Built {
  const RelationSnapshot* snapshot = nullptr;
  uint64_t builds = 0;
  uint64_t column_builds = 0;
  std::vector<const void*> structures;  // addresses, in listing order
  std::vector<const ColumnVector*> columns;

  bool operator==(const Built& other) const {
    return snapshot == other.snapshot && builds == other.builds &&
           column_builds == other.column_builds &&
           structures == other.structures && columns == other.columns;
  }
};

/// Per flattened relation name: what it has built. With `columns`, also
/// each column's address (transposing the ones no query read yet).
std::map<std::string, Built> BuiltState(const NestedDb& db, bool columns) {
  std::map<std::string, Built> out;
  for (const std::shared_ptr<const FlatRelation>& flat :
       db.FlattenedRelations()) {
    const RelationSnapshot& snapshot = *flat->snapshot;
    Built& built = out[flat->name];
    built.snapshot = &snapshot;
    for (const SnapshotStructureInfo& info : snapshot.Structures()) {
      built.structures.push_back(info.address);
    }
    if (columns) {
      for (size_t c = 0; c < flat->columns.size(); ++c) {
        built.columns.push_back(&snapshot.Column(c));
      }
    }
    built.builds = snapshot.builds();
    built.column_builds = snapshot.column_builds();
  }
  return out;
}

TEST(FlattenTest, TranslationAliasesTheSharedRelationsWithoutCopying) {
  NestedDb db = MakeCompanyNestedDb();
  QueryRunResult run = MustRun(
      db, "Select All From EMPLOYEE e1, EMPLOYEE*ChildName, "
          "DEPARTMENT-->Manager Where e1.D# = DEPARTMENT.D# and "
          "EMPLOYEE.D# = DEPARTMENT.D#");
  const Database& rel_db = *run.translation.db;
  const EntityType& employee = *db.FindType("EMPLOYEE");
  std::shared_ptr<const FlatRelation> flat = db.Flatten(employee);
  std::shared_ptr<const FlatRelation> children =
      db.Flatten(employee, employee.FieldIndex("ChildName"));
  EXPECT_EQ(flat->name, "EMPLOYEE");
  EXPECT_EQ(children->name, "EMPLOYEE*ChildName");
  EXPECT_EQ(children->columns, (std::vector<std::string>{"@owner",
                                                         "ChildName"}));
  // e1, EMPLOYEE and the manager link are three renamings of one
  // relation: their own attributes over the flattened rows.
  for (const char* var : {"e1", "EMPLOYEE", "DEPARTMENT_Manager"}) {
    SCOPED_TRACE(var);
    const RelId rel = rel_db.Rel(var);
    EXPECT_TRUE(rel_db.Snapshot(rel)->SharesBodyWith(*flat->snapshot));
    EXPECT_EQ(rel_db.relation(rel).rows().data(),
              flat->snapshot->relation().rows().data());
    EXPECT_EQ(rel_db.scheme(rel).col(0), rel_db.Attr(var, "@oid"));
  }
  EXPECT_TRUE(rel_db.Snapshot(rel_db.Rel("EMPLOYEE_ChildName"))
                  ->SharesBodyWith(*children->snapshot));
  EXPECT_EQ(db.FlattenedRelations().size(), 3u);
}

TEST(FlattenTest, SecondRunOfEachQueryBuildsNothing) {
  for (int scale : {1, 20}) {
    SCOPED_TRACE("scale " + std::to_string(scale));
    NestedDb db =
        scale == 1 ? MakeCompanyNestedDb() : MakeScaledCompanyNestedDb(scale);
    for (const std::string& text : Section5Queries()) {
      SCOPED_TRACE(text);
      QueryRunResult first = MustRun(db, text);
      const std::map<std::string, Built> warm = BuiltState(db, true);
      QueryRunResult second = MustRun(db, text);
      // Same builds, same structures and columns at the same addresses.
      EXPECT_EQ(BuiltState(db, true), warm);
      EXPECT_EQ(CanonicalString(second.relation),
                CanonicalString(first.relation));
      // Both runs read the same flattened versions.
      for (RelId rel = 0; rel < first.translation.db->num_relations();
           ++rel) {
        EXPECT_TRUE(second.translation.db->Snapshot(rel)->SharesBodyWith(
            *first.translation.db->Snapshot(rel)));
      }
    }
    // Something was shared: every structure was built once across all
    // the queries that used it.
    for (const auto& [name, built] : BuiltState(db, false)) {
      EXPECT_EQ(built.builds, built.structures.size()) << name;
    }
  }
}

TEST(FlattenTest, AddEntityStartsANewVersion) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string query = "Select All From EMPLOYEE Where EMPLOYEE.Rank = 99";
  QueryRunResult before = MustRun(db, query);
  EXPECT_EQ(before.relation.NumRows(), 0u);
  std::shared_ptr<const FlatRelation> old =
      db.Flatten(*db.FindType("EMPLOYEE"));

  Result<int64_t> oid = db.AddEntity(
      "EMPLOYEE",
      {FieldValue::Scalar(Value::Int(3)), FieldValue::Scalar(Value::Int(99)),
       FieldValue::Set({})});
  ASSERT_TRUE(oid.ok());
  EXPECT_TRUE(db.FlattenedRelations().empty());

  QueryRunResult after = MustRun(db, query);
  ASSERT_EQ(after.relation.NumRows(), 1u);
  EXPECT_EQ(after.relation.ValueOf(0, after.translation.db->Attr("EMPLOYEE",
                                                                 "@oid")),
            Value::Int(*oid));
  const RelationSnapshot& now = *after.translation.db->Snapshot(0);
  EXPECT_FALSE(now.SharesBodyWith(*old->snapshot));
  EXPECT_EQ(now.relation().NumRows(), 5u);
  // The old version stays readable by whoever holds it.
  EXPECT_EQ(old->snapshot->relation().NumRows(), 4u);
  // The plan cache's data stamp moves with the version, so a plan
  // cached for the old one is re-planned.
  EXPECT_NE(DatabaseGenerationStamp(*after.translation.db),
            DatabaseGenerationStamp(*before.translation.db));
}

TEST(FlattenTest, DefineTypeStartsANewVersion) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string query = "Select All From EMPLOYEE*ChildName";
  QueryRunResult before = MustRun(db, query);
  std::shared_ptr<const FlatRelation> old =
      db.Flatten(*db.FindType("EMPLOYEE"));

  ASSERT_TRUE(
      db.DefineType("PROJECT", {{"Name", FieldDef::Kind::kScalar, ""}}).ok());
  EXPECT_TRUE(db.FlattenedRelations().empty());

  QueryRunResult after = MustRun(db, query);
  EXPECT_EQ(CanonicalString(after.relation), CanonicalString(before.relation));
  EXPECT_FALSE(after.translation.db->Snapshot(0)->SharesBodyWith(
      *old->snapshot));

  ASSERT_TRUE(
      db.AddEntity("PROJECT", {FieldValue::Scalar(Value::String("fro"))})
          .ok());
  EXPECT_EQ(MustRun(db, "Select All From PROJECT").relation.NumRows(), 1u);
}

TEST(FlattenTest, ConcurrentFirstUseBuildsEachOnce) {
  constexpr int kScale = 2;
  constexpr int kThreads = 4;
  const std::vector<std::string> queries = Section5Queries();

  // The reference: one thread, one fresh database.
  NestedDb serial = MakeScaledCompanyNestedDb(kScale);
  std::vector<std::string> expected;
  for (const std::string& text : queries) {
    expected.push_back(CanonicalString(MustRun(serial, text).relation));
  }
  const std::map<std::string, Built> reference = BuiltState(serial, false);

  NestedDb shared = MakeScaledCompanyNestedDb(kScale);
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different query, so first uses overlap.
      results[t].resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + static_cast<size_t>(t) * 3) % queries.size();
        Result<QueryRunResult> run = RunQuery(shared, queries[q]);
        if (run.ok()) results[t][q] = CanonicalString(run->relation);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(results[t], expected);
  // The same flattened relations, columns and structures as the serial
  // run, each built once.
  const std::map<std::string, Built> built = BuiltState(shared, false);
  ASSERT_EQ(built.size(), reference.size());
  for (const auto& [name, state] : built) {
    SCOPED_TRACE(name);
    ASSERT_EQ(reference.count(name), 1u);
    const Built& want = reference.at(name);
    EXPECT_EQ(state.builds, want.builds);
    EXPECT_EQ(state.builds, state.structures.size());
    EXPECT_EQ(state.column_builds, want.column_builds);
    EXPECT_LE(state.column_builds, state.snapshot->relation().scheme().size());
  }
}

}  // namespace
}  // namespace fro
