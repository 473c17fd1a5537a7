// Translation tests: Section 5.2's outerjoin reformulation and the
// Section 5.3 free-reorderability observation, on the paper's own
// example queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "graph/nice.h"
#include "lang/lang.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

TranslationResult MustTranslate(const NestedDb& db, const std::string& text) {
  Result<SelectQuery> ast = ParseQuery(text);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  Result<TranslationResult> translated = TranslateQuery(db, *ast);
  EXPECT_TRUE(translated.ok()) << translated.status().ToString();
  return std::move(*translated);
}

/// A run's result as sorted rows over its columns sorted by qualified
/// name, so two translations that number attributes differently compare.
std::vector<std::vector<std::string>> ByColumnName(const QueryRunResult& run) {
  const Catalog& catalog = run.translation.db->catalog();
  const Scheme& scheme = run.relation.scheme();
  std::vector<std::pair<std::string, size_t>> columns;
  for (size_t c = 0; c < scheme.size(); ++c) {
    columns.emplace_back(catalog.AttrName(scheme.col(c)), c);
  }
  std::sort(columns.begin(), columns.end());
  std::vector<std::vector<std::string>> rows;
  for (const Tuple& row : run.relation.rows()) {
    std::vector<std::string> named;
    for (const auto& [name, c] : columns) {
      named.push_back(name + "=" + row.value(c).ToString());
    }
    rows.push_back(std::move(named));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ModelTest, TypeAndEntityBasics) {
  NestedDb db = MakeCompanyNestedDb();
  const EntityType* emp = db.FindType("EMPLOYEE");
  ASSERT_NE(emp, nullptr);
  EXPECT_EQ(emp->FieldIndex("ChildName"), 2);
  EXPECT_EQ(emp->FieldIndex("nope"), -1);
  EXPECT_EQ(db.Rows("EMPLOYEE").size(), 4u);
  EXPECT_EQ(db.Rows("DEPARTMENT").size(), 3u);
  EXPECT_EQ(db.FindType("GHOST"), nullptr);
  // Duplicate type definition fails.
  NestedDb db2;
  ASSERT_TRUE(db2.DefineType("T", {}).ok());
  EXPECT_FALSE(db2.DefineType("T", {}).ok());
  // Field-count mismatch fails.
  EXPECT_FALSE(db2.AddEntity("T", {FieldValue::Scalar(Value::Int(1))}).ok());
  EXPECT_FALSE(db2.AddEntity("U", {}).ok());
}

TEST(TranslateTest, UnnestBecomesOuterjoin) {
  NestedDb db = MakeCompanyNestedDb();
  TranslationResult t = MustTranslate(db, "Select All From EMPLOYEE*ChildName");
  // Two relations: EMPLOYEE and the ValueOfChildName virtual relation.
  EXPECT_EQ(t.db->num_relations(), 2u);
  ASSERT_EQ(t.graph.num_edges(), 1);
  EXPECT_TRUE(t.graph.edge(0).directed);
  // Preserved: EMPLOYEE; null-supplied: the values.
  EXPECT_EQ(t.db->catalog().RelationName(
                t.graph.node_rel(t.graph.edge(0).u)),
            "EMPLOYEE");
  EXPECT_TRUE(t.audit.freely_reorderable());
  // Evaluation: 4 employees; Ana has 2 children -> 5 rows, childless Bo
  // padded with null ChildName.
  Relation out = Eval(t.query, *t.db);
  EXPECT_EQ(out.NumRows(), 5u);
  AttrId child = t.db->Attr("EMPLOYEE_ChildName", "ChildName");
  size_t padded = 0;
  for (size_t i = 0; i < out.NumRows(); ++i) {
    if (out.ValueOf(i, child).is_null()) ++padded;
  }
  EXPECT_EQ(padded, 1u);
}

TEST(TranslateTest, LinkBecomesOuterjoin) {
  NestedDb db = MakeCompanyNestedDb();
  TranslationResult t =
      MustTranslate(db, "Select All From DEPARTMENT-->Audit");
  EXPECT_EQ(t.db->num_relations(), 2u);
  Relation out = Eval(t.query, *t.db);
  // 3 departments; dept 3 has no audit -> padded, not dropped.
  EXPECT_EQ(out.NumRows(), 3u);
  AttrId title = t.db->Attr("DEPARTMENT_Audit", "Title");
  size_t padded = 0;
  for (size_t i = 0; i < out.NumRows(); ++i) {
    if (out.ValueOf(i, title).is_null()) ++padded;
  }
  EXPECT_EQ(padded, 1u);
}

TEST(TranslateTest, PaperProsecutorQueryShape) {
  // The paper's Section 5.1 example: employees' children joined with the
  // department info, manager attributes, and audit report.
  NestedDb db = MakeCompanyNestedDb();
  TranslationResult t = MustTranslate(
      db,
      "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit "
      "Where EMPLOYEE.D# = DEPARTMENT.D# and "
      "DEPARTMENT.Location = 'Zurich' and EMPLOYEE.Rank > 10");
  // Relations: EMPLOYEE, EMPLOYEE_ChildName, DEPARTMENT,
  // DEPARTMENT_Manager, DEPARTMENT_Audit.
  EXPECT_EQ(t.db->num_relations(), 5u);
  // Graph: join edge EMPLOYEE--DEPARTMENT; three outerjoin edges outward.
  int join_edges = 0, oj_edges = 0;
  for (const GraphEdge& e : t.graph.edges()) {
    e.directed ? ++oj_edges : ++join_edges;
  }
  EXPECT_EQ(join_edges, 1);
  EXPECT_EQ(oj_edges, 3);
  NiceCheck nice = CheckNice(t.graph);
  EXPECT_TRUE(nice.nice) << nice.violation;
  EXPECT_TRUE(t.audit.freely_reorderable());
  // Restrictions became a top-level Restrict node.
  EXPECT_EQ(t.query->kind(), OpKind::kRestrict);

  // Semantics: Zurich departments are 1 and 3. Employees with rank > 10
  // in those: Ana (dept 1, rank 12). Ana has two children -> 2 rows.
  Relation out = Eval(t.query, *t.db);
  EXPECT_EQ(out.NumRows(), 2u);
}

TEST(TranslateTest, AuditChainFieldResolvedOnBaseEntity) {
  // DEPARTMENT-->Manager-->Audit: Audit is a DEPARTMENT field (not an
  // EMPLOYEE field), so the chain search must fall back to the base.
  NestedDb db = MakeCompanyNestedDb();
  TranslationResult t =
      MustTranslate(db, "Select All From DEPARTMENT-->Manager-->Audit");
  // Both outerjoin edges hang off DEPARTMENT.
  int from_department = 0;
  for (const GraphEdge& e : t.graph.edges()) {
    if (t.db->catalog().RelationName(t.graph.node_rel(e.u)) == "DEPARTMENT") {
      ++from_department;
    }
  }
  EXPECT_EQ(from_department, 2);
}

TEST(TranslateTest, ChainedLinkThenUnnest) {
  // DEPARTMENT-->Manager*ChildName: ChildName resolves on the linked
  // EMPLOYEE, producing a two-step outerjoin chain.
  NestedDb db = MakeCompanyNestedDb();
  TranslationResult t =
      MustTranslate(db, "Select All From DEPARTMENT-->Manager*ChildName");
  ASSERT_EQ(t.graph.num_edges(), 2);
  // One edge DEPARTMENT -> DEPARTMENT_Manager, one
  // DEPARTMENT_Manager -> DEPARTMENT_Manager_ChildName.
  const Catalog& catalog = t.db->catalog();
  std::set<std::string> edges;
  for (const GraphEdge& e : t.graph.edges()) {
    edges.insert(catalog.RelationName(t.graph.node_rel(e.u)) + ">" +
                 catalog.RelationName(t.graph.node_rel(e.v)));
  }
  EXPECT_TRUE(edges.count("DEPARTMENT>DEPARTMENT_Manager"));
  EXPECT_TRUE(edges.count("DEPARTMENT_Manager>DEPARTMENT_Manager_ChildName"));
  EXPECT_TRUE(t.audit.freely_reorderable());
  // 3 departments: dept 1 manager Ana (2 children) -> 2 rows; dept 2
  // manager Cy (1 child) -> 1 row; dept 3 manager Bo (childless) ->
  // 1 padded row. Total 4.
  EXPECT_EQ(Eval(t.query, *t.db).NumRows(), 4u);
}

TEST(TranslateTest, Errors) {
  NestedDb db = MakeCompanyNestedDb();
  auto translate = [&](const std::string& text) {
    Result<SelectQuery> ast = ParseQuery(text);
    EXPECT_TRUE(ast.ok());
    return TranslateQuery(db, *ast);
  };
  // Unknown type.
  EXPECT_FALSE(translate("Select All From GHOST").ok());
  // Unknown field in a chain.
  EXPECT_FALSE(translate("Select All From EMPLOYEE*Nope").ok());
  // Wrong field kind for the operator.
  EXPECT_FALSE(translate("Select All From EMPLOYEE->ChildName").ok());
  EXPECT_FALSE(translate("Select All From DEPARTMENT*Manager").ok());
  // Duplicate base variable.
  EXPECT_FALSE(translate("Select All From EMPLOYEE, EMPLOYEE").ok());
  // Where may not reference chain-introduced relations.
  EXPECT_FALSE(
      translate("Select All From EMPLOYEE*ChildName "
                "Where EMPLOYEE_ChildName.ChildName = 'Mia'")
          .ok());
  // Disconnected From items (no join predicate).
  EXPECT_FALSE(translate("Select All From EMPLOYEE, DEPARTMENT").ok());
  // Unknown Where attribute.
  EXPECT_FALSE(
      translate("Select All From EMPLOYEE Where EMPLOYEE.Nope = 1").ok());
}

// `aliases` copies of EMPLOYEE chained on D#, plus REPORT.
std::string ManyRelationQuery(int aliases) {
  std::string from = "Select All From ";
  std::string where = " Where ";
  for (int i = 1; i <= aliases; ++i) {
    from += "EMPLOYEE e" + std::to_string(i) + ", ";
    if (i > 1) {
      where += "e" + std::to_string(i - 1) + ".D# = e" + std::to_string(i) +
               ".D# and ";
    }
  }
  return from + "REPORT" + where + "REPORT.Cost = 1";
}

TEST(TranslateTest, FromAliasMayEqualAGeneratedChainName) {
  // A chain step's relation is named <owner>_<field>; a From alias with
  // that name is reserved first, in either order, so the step takes the
  // next free name and both orders translate to the same relations.
  NestedDb db = MakeCompanyNestedDb();
  const std::string chain_first =
      "Select All From DEPARTMENT-->Manager, EMPLOYEE DEPARTMENT_Manager "
      "Where DEPARTMENT.D# = DEPARTMENT_Manager.D#";
  const std::string alias_first =
      "Select All From EMPLOYEE DEPARTMENT_Manager, DEPARTMENT-->Manager "
      "Where DEPARTMENT.D# = DEPARTMENT_Manager.D#";
  for (const std::string& text : {chain_first, alias_first}) {
    SCOPED_TRACE(text);
    Result<SelectQuery> ast = ParseQuery(text);
    ASSERT_TRUE(ast.ok()) << ast.status().ToString();
    Result<TranslationResult> translated = TranslateQuery(db, *ast);
    ASSERT_TRUE(translated.ok()) << translated.status().ToString();
    const TranslationResult& t = *translated;
    const Catalog& catalog = t.db->catalog();
    // The alias is the EMPLOYEE tuple variable the Where list names; the
    // manager link got the next free name.
    EXPECT_TRUE(catalog.FindRelation("DEPARTMENT_Manager").ok());
    EXPECT_TRUE(catalog.FindRelation("DEPARTMENT_Manager2").ok());
    EXPECT_EQ(t.db->num_relations(), 3u);
    EXPECT_TRUE(t.audit.freely_reorderable());
  }
  Result<QueryRunResult> a = RunQuery(db, chain_first);
  Result<QueryRunResult> b = RunQuery(db, alias_first);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->relation.NumRows(), 3u);
  EXPECT_EQ(ByColumnName(*a), ByColumnName(*b));
}

TEST(TranslateTest, MoreThan64RelationsIsInvalidArgument) {
  // The query graph holds at most 64 nodes; a longer From list is a
  // client error, not an internal invariant.
  NestedDb db = MakeCompanyNestedDb();
  Result<SelectQuery> ast = ParseQuery(ManyRelationQuery(70));
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  Result<TranslationResult> translated = TranslateQuery(db, *ast);
  ASSERT_FALSE(translated.ok());
  EXPECT_EQ(translated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(translated.status().ToString().find("71 relations"),
            std::string::npos)
      << translated.status().ToString();
  // 64 relations is within the bound: the query reaches the checks after
  // it (REPORT is joined to nothing, so it is disconnected).
  ast = ParseQuery(ManyRelationQuery(63));
  ASSERT_TRUE(ast.ok());
  translated = TranslateQuery(db, *ast);
  ASSERT_FALSE(translated.ok());
  EXPECT_NE(translated.status().ToString().find("not connected"),
            std::string::npos)
      << translated.status().ToString();
}

TEST(RunQueryTest, QueretaroExampleEndToEnd) {
  // "returns at least one tuple for each employee in a Queretaro
  //  department. For Queretaro employees with children, one tuple is
  //  returned for each child; otherwise, a tuple with null ChildName is
  //  returned."
  NestedDb db = MakeCompanyNestedDb();
  Result<QueryRunResult> run = RunQuery(
      db,
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D# and "
      "DEPARTMENT.Location = 'Queretaro'");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Queretaro employees: Cy (one child) -> 1 row.
  EXPECT_EQ(run->relation.NumRows(), 1u);
  EXPECT_TRUE(run->translation.audit.freely_reorderable());
  EXPECT_TRUE(run->optimize.freely_reorderable);
}

TEST(RunQueryTest, OptimizedAndUnoptimizedAgree) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string text =
      "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit "
      "Where EMPLOYEE.D# = DEPARTMENT.D#";
  RunOptions no_opt;
  no_opt.optimize = false;
  Result<QueryRunResult> plain = RunQuery(db, text, no_opt);
  Result<QueryRunResult> optimized = RunQuery(db, text);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE(BagEquals(plain->relation, optimized->relation));
}

TEST(RunQueryTest, ChildlessEmployeePreserved) {
  // The motivating requirement: listing must keep entities with empty
  // repeating groups.
  NestedDb db = MakeCompanyNestedDb();
  Result<QueryRunResult> run =
      RunQuery(db, "Select All From EMPLOYEE*ChildName");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->relation.NumRows(), 5u);  // 4 employees, Ana twice
}

}  // namespace
}  // namespace fro
