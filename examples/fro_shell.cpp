// fro_shell — a small interactive/batch shell over the Section 5 query
// language, running against the paper's company database.
//
//   $ ./build/examples/fro_shell                       # demo queries
//   $ echo "Select All From EMPLOYEE*ChildName" | ./build/examples/fro_shell
//
// Commands (one per line):
//   Select All From ...        run a query, print the result
//   \explain <query>           show the optimized plan with estimates
//   \analyze <query>           execute the plan, show actual vs. estimated
//   \graph <query>             show the derived query graph (text + DOT)
//   \trees <query>             enumerate all implementing trees
//   \connect host:port         switch to remote mode against a fro_serve
//   \disconnect                back to local execution
//   \cachestats                plan-cache counters (local or remote)
//   \indexes [<query>]         build + list the IndexManager entries the
//                              query's optimized plan can exploit
//   \help                      this text
//
// In remote mode plain queries, \explain, and \analyze travel over the
// fro_serve protocol; local execution keeps its own plan cache so
// \cachestats is meaningful either way.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "algebra/eval.h"
#include "common/str_util.h"
#include "enumerate/it_enum.h"
#include "lang/lang.h"
#include "relational/index_manager.h"
#include "relational/ops.h"
#include "relational/pretty.h"
#include "optimizer/explain.h"
#include "server/client.h"
#include "optimizer/plan_cache.h"
#include "testing/nested_sample.h"
#include "wcoj/leapfrog.h"
#include "wcoj/trie_index.h"

using namespace fro;

namespace {

/// Local plan cache: repeated shell queries skip the DP search, and
/// \cachestats has numbers to show without a server.
LruPlanCache& LocalPlanCache() {
  static LruPlanCache cache(64);
  return cache;
}

/// Local cardinality-feedback store: every shell query feeds its actuals
/// in, repeated queries plan against the corrections, and \feedback has
/// the loop's state to show (optimizer/feedback.h).
FeedbackStore& LocalFeedback() {
  static FeedbackStore store;
  return store;
}

/// Non-null while \connect is active.
FroClient* g_remote = nullptr;

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  Select All From <items> [Where <conjuncts>]   run a query\n"
      "  \\explain <query>   optimized plan with cardinality estimates\n"
      "  \\analyze <query>   EXPLAIN ANALYZE: run the plan, actual counters\n"
      "  \\graph <query>     derived query graph (text and Graphviz DOT)\n"
      "  \\trees <query>     all implementing trees and their results\n"
      "  \\connect h:p       speak the fro_serve protocol to h:p\n"
      "  \\disconnect        return to local execution\n"
      "  \\cachestats        plan-cache counters (local or remote)\n"
      "  \\feedback          cardinality-feedback store: corrections,\n"
      "                     Q-error histogram, re-plan counters\n"
      "  \\indexes [query]   build + list the IndexManager entries the\n"
      "                     query's plan can exploit (always local)\n"
      "  \\help              this text\n"
      "schema: EMPLOYEE(D#, Rank, ChildName*), REPORT(Title, Cost),\n"
      "        DEPARTMENT(D#, Location, ->Manager, ->Secretary, ->Audit)\n");
}

RunOptions LocalRunOptions() {
  RunOptions options;
  options.plan_cache = &LocalPlanCache();
  options.feedback = &LocalFeedback();
  return options;
}

void PrintRemote(const Result<Response>& reply) {
  if (!reply.ok()) {
    std::printf("transport error: %s\n", reply.status().ToString().c_str());
    return;
  }
  if (!reply->status.ok()) {
    std::printf("server error: %s\n", reply->status.ToString().c_str());
    return;
  }
  std::printf("%s", reply->body.c_str());
}

void RunConnect(const std::string& target) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::printf("usage: \\connect host:port\n");
    return;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.substr(colon + 1).c_str());
  static FroClient client;
  client.Close();
  Status status = client.Connect(host, port);
  if (!status.ok()) {
    std::printf("connect failed: %s\n", status.ToString().c_str());
    g_remote = nullptr;
    return;
  }
  g_remote = &client;
  std::printf("connected to %s:%d; queries now run remotely\n", host.c_str(),
              port);
}

void RunDisconnect() {
  if (g_remote != nullptr) {
    g_remote->Close();
    g_remote = nullptr;
  }
  std::printf("local execution\n");
}

void RunCacheStats() {
  if (g_remote != nullptr) {
    PrintRemote(g_remote->Stats());
    return;
  }
  std::printf("local plan_cache %s\n",
              LocalPlanCache().stats().ToString().c_str());
}

void RunFeedback() {
  if (g_remote != nullptr) {
    // The server's STATS payload carries its feedback rollup.
    PrintRemote(g_remote->Stats());
    return;
  }
  std::printf("%s", LocalFeedback().Describe().c_str());
  std::printf("local plan_cache %s\n",
              LocalPlanCache().stats().ToString().c_str());
}

void RunPlain(const NestedDb& db, const std::string& query) {
  Result<QueryRunResult> run = RunQuery(db, query, LocalRunOptions());
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  const Catalog& catalog = run->translation.db->catalog();
  std::printf("%s", PrettyTable(run->relation, &catalog).c_str());
  std::printf("(%zu rows; %s)\n", run->relation.NumRows(),
              run->optimize.Summary().c_str());
}

void RunExplain(const NestedDb& db, const std::string& query) {
  Result<QueryRunResult> run = RunQuery(db, query, LocalRunOptions());
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  std::printf("%s",
              Explain(run->optimize.plan, *run->translation.db).c_str());
}

void RunAnalyze(const NestedDb& db, const std::string& query) {
  Result<QueryRunResult> run = RunQuery(db, query, LocalRunOptions());
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  const CardinalityFeedback feedback = LocalFeedback().Snapshot();
  ExplainAnalyzeResult analyzed =
      ExplainAnalyze(run->optimize.plan, *run->translation.db,
                     JoinAlgo::kAuto, /*threads=*/1, &feedback);
  std::printf("%s", analyzed.text.c_str());
  // Same per-pass rendering as the server's ANALYZE verb and STATS.
  std::printf("%s", FormatPassStats(run->optimize.passes).c_str());
  std::printf(
      "(%zu rows; %llu base tuples read; %llu tuples read in total; "
      "worst q-error %.2f)\n",
      analyzed.result.NumRows(),
      static_cast<unsigned long long>(analyzed.base_tuples_read),
      static_cast<unsigned long long>(analyzed.totals.tuples_read()),
      analyzed.max_q_error);
}

/// Walks an optimized plan and materializes, through `manager`, the
/// persistent indexes its operators can exploit: a hash index per
/// join-like node whose build (inner) side is a base relation with
/// equi-keys, and a trie per multiway-join operand that is a base
/// relation, using the level order implied by the node's variable order.
void CollectPlanIndexes(const ExprPtr& expr, const Database& db,
                        IndexManager* manager) {
  if (expr == nullptr || expr->is_leaf()) return;
  if (expr->is_multiway()) {
    MultiwaySpec spec = AnalyzeMultiwayJoin(expr);
    for (size_t c = 0; c < expr->mj_children().size(); ++c) {
      const ExprPtr& child = expr->mj_children()[c];
      if (child->is_leaf()) {
        std::unique_ptr<TrieIndex> owned;
        BuildTrieIndex(db, child->rel(), spec.child_levels[c], manager,
                       &owned);
      } else {
        CollectPlanIndexes(child, db, manager);
      }
    }
    return;
  }
  if (expr->is_join_like()) {
    // Same operand anchoring as the plan builder: the hash table is
    // built over the non-preserved side.
    ExprPtr outer = expr->left();
    ExprPtr inner = expr->right();
    if (!expr->preserves_left() && expr->kind() != OpKind::kJoin) {
      std::swap(outer, inner);
    }
    if (inner->is_leaf()) {
      EquiKeys keys =
          ExtractEquiKeys(expr->pred(), Scheme(outer->attrs().ids()),
                          db.scheme(inner->rel()));
      if (keys.Usable()) {
        manager->CreateIndex(db, inner->rel(), std::move(keys.right));
      }
    }
  }
  CollectPlanIndexes(expr->left(), db, manager);
  CollectPlanIndexes(expr->right(), db, manager);
}

void RunIndexes(const NestedDb& db, const std::string& query) {
  // The manager and the run that owns its database persist across
  // commands, so a bare \indexes re-lists the current entries (with
  // their build generations) without re-planning.
  static std::unique_ptr<IndexManager> manager;
  static std::optional<QueryRunResult> last;
  if (!query.empty()) {
    Result<QueryRunResult> run = RunQuery(db, query, LocalRunOptions());
    if (!run.ok()) {
      std::printf("error: %s\n", run.status().ToString().c_str());
      return;
    }
    manager = std::make_unique<IndexManager>();
    last.emplace(std::move(*run));
    CollectPlanIndexes(last->optimize.plan, *last->translation.db,
                       manager.get());
  }
  if (manager == nullptr) {
    std::printf("no indexes built yet; usage: \\indexes <query>\n");
    return;
  }
  const Database& rel_db = *last->translation.db;
  const Catalog& catalog = rel_db.catalog();
  std::vector<IndexInfo> infos = manager->ListIndexes(rel_db);
  if (infos.empty()) {
    std::printf("no index-eligible operators in the last plan\n");
    return;
  }
  std::printf("%-24s %-5s %-36s %6s %4s %s\n", "relation", "kind", "keys",
              "rows", "gen", "stale");
  for (const IndexInfo& info : infos) {
    std::string keys;
    for (AttrId a : info.key_attrs) {
      if (!keys.empty()) keys += ",";
      keys += catalog.AttrName(a);
    }
    std::printf("%-24s %-5s %-36s %6zu %4llu %s\n",
                catalog.RelationName(info.rel).c_str(),
                info.is_trie ? "trie" : "hash", keys.c_str(), info.rows,
                static_cast<unsigned long long>(info.generation),
                info.stale ? "yes" : "no");
  }
}

void RunGraph(const NestedDb& db, const std::string& query) {
  Result<QueryRunResult> run = RunQuery(db, query);
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  const Catalog& catalog = run->translation.db->catalog();
  std::printf("%s", run->translation.graph.ToString(&catalog).c_str());
  std::printf("freely reorderable: %s\n",
              run->translation.audit.freely_reorderable() ? "yes" : "no");
  std::printf("%s", GraphToDot(run->translation.graph,
                               *run->translation.db).c_str());
}

void RunTrees(const NestedDb& db, const std::string& query) {
  Result<QueryRunResult> run = RunQuery(db, query);
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  const Database& rel_db = *run->translation.db;
  uint64_t count = CountIts(run->translation.graph);
  std::printf("%llu implementing tree(s)\n",
              static_cast<unsigned long long>(count));
  size_t shown = 0;
  for (const ExprPtr& tree :
       EnumerateIts(run->translation.graph, rel_db, 20)) {
    Relation out = Eval(tree, rel_db);
    std::printf("  %s => %zu rows\n",
                tree->ToString(&rel_db.catalog()).c_str(), out.NumRows());
    if (++shown >= 20) break;
  }
  if (count > shown) std::printf("  ... (%llu more)\n",
                                 static_cast<unsigned long long>(count - shown));
}

void Dispatch(const NestedDb& db, const std::string& line) {
  if (line.empty()) return;
  std::printf("fro> %s\n", line.c_str());
  if (StartsWith(line, "\\help")) {
    PrintHelp();
  } else if (StartsWith(line, "\\connect ")) {
    RunConnect(line.substr(9));
  } else if (StartsWith(line, "\\disconnect")) {
    RunDisconnect();
  } else if (StartsWith(line, "\\cachestats")) {
    RunCacheStats();
  } else if (StartsWith(line, "\\feedback")) {
    RunFeedback();
  } else if (StartsWith(line, "\\explain ")) {
    if (g_remote != nullptr) {
      PrintRemote(g_remote->Explain(line.substr(9)));
    } else {
      RunExplain(db, line.substr(9));
    }
  } else if (StartsWith(line, "\\analyze ")) {
    if (g_remote != nullptr) {
      PrintRemote(g_remote->Analyze(line.substr(9)));
    } else {
      RunAnalyze(db, line.substr(9));
    }
  } else if (StartsWith(line, "\\indexes")) {
    std::string rest = line.substr(8);
    while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    RunIndexes(db, rest);
  } else if (StartsWith(line, "\\graph ")) {
    RunGraph(db, line.substr(7));
  } else if (StartsWith(line, "\\trees ")) {
    RunTrees(db, line.substr(7));
  } else if (g_remote != nullptr) {
    PrintRemote(g_remote->Query(line));
  } else {
    RunPlain(db, line);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  NestedDb db = MakeCompanyNestedDb();
  if (argc > 1) {
    std::string query;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) query += " ";
      query += argv[i];
    }
    Dispatch(db, query);
    return 0;
  }
  std::string line;
  bool saw_input = false;
  while (std::getline(std::cin, line)) {
    saw_input = true;
    Dispatch(db, line);
  }
  if (!saw_input) {
    // Demo mode: the paper's queries.
    PrintHelp();
    Dispatch(db,
             "Select All From EMPLOYEE*ChildName, DEPARTMENT "
             "Where EMPLOYEE.D# = DEPARTMENT.D# and "
             "DEPARTMENT.Location = 'Queretaro'");
    Dispatch(db,
             "\\graph Select All From EMPLOYEE*ChildName, "
             "DEPARTMENT-->Manager-->Audit "
             "Where EMPLOYEE.D# = DEPARTMENT.D#");
    Dispatch(db,
             "\\explain Select All From DEPARTMENT-->Manager-->Audit "
             "Where DEPARTMENT.Location = 'Zurich'");
    Dispatch(db,
             "\\analyze Select All From EMPLOYEE*ChildName, DEPARTMENT "
             "Where EMPLOYEE.D# = DEPARTMENT.D#");
    Dispatch(db, "\\trees Select All From DEPARTMENT-->Manager*ChildName");
    Dispatch(db,
             "\\indexes Select All From EMPLOYEE*ChildName, DEPARTMENT "
             "Where EMPLOYEE.D# = DEPARTMENT.D#");
  }
  return 0;
}
