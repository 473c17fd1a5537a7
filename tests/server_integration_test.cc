// End-to-end tests of fro_serve over real loopback sockets: concurrent
// clients against serial baselines, plan-cache behavior under load,
// deadlines, cancellation, admission control, and served bytes equal to
// the in-process rendering.

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lang/lang.h"
#include "relational/pretty.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

const char* kWorkload[] = {
    "Select All From EMPLOYEE*ChildName, DEPARTMENT "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
    "Select All From DEPARTMENT-->Manager-->Audit",
    "Select All From DEPARTMENT-->Manager*ChildName "
    "Where DEPARTMENT.Location = 'Zurich'",
    "Select All From EMPLOYEE Where EMPLOYEE.Rank = 7",
    "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Secretary "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
    "Select EMPLOYEE.Rank, DEPARTMENT.Location From EMPLOYEE, DEPARTMENT "
    "Where EMPLOYEE.D# = DEPARTMENT.D#",
};
constexpr size_t kWorkloadSize = std::size(kWorkload);

class ServerIntegrationTest : public ::testing::Test {
 protected:
  ServerIntegrationTest() : db_(MakeCompanyNestedDb()) {}

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<FroServer>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  FroClient MakeClient() {
    FroClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  NestedDb db_;
  std::unique_ptr<FroServer> server_;
};

TEST_F(ServerIntegrationTest, PingAndStats) {
  StartServer(ServerOptions());
  FroClient client = MakeClient();
  Result<Response> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->body, "pong\n");
  Result<Response> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("plan_cache"), std::string::npos);
  EXPECT_NE(stats->body.find("latency_p50_us"), std::string::npos);
}

TEST_F(ServerIntegrationTest, ConcurrentClientsMatchSerialByteForByte) {
  ServerOptions options;
  options.num_workers = 6;
  StartServer(options);

  // Warm the plan cache so serial baseline and concurrent phase both see
  // cache-hit responses (the notes line in the body names the plan's
  // provenance, so cold and warm bodies differ by design).
  {
    FroClient warmup = MakeClient();
    for (const char* query : kWorkload) {
      Result<Response> r = warmup.Query(query);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r->status.ok()) << r->status.ToString();
    }
  }

  // Serial baseline.
  std::vector<std::string> baseline(kWorkloadSize);
  {
    FroClient serial = MakeClient();
    for (size_t i = 0; i < kWorkloadSize; ++i) {
      Result<Response> r = serial.Query(kWorkload[i]);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r->status.ok());
      ASSERT_FALSE(r->body.empty());
      baseline[i] = r->body;
    }
  }

  // 6 concurrent clients, several passes each, every response compared
  // against the serial baseline byte for byte.
  constexpr int kClients = 6;
  constexpr int kPasses = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FroClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < kWorkloadSize; ++i) {
          // Stagger start offsets so clients collide on all queries.
          const size_t q = (i + static_cast<size_t>(c)) % kWorkloadSize;
          Result<Response> r = client.Query(kWorkload[q]);
          if (!r.ok() || !r->status.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (r->body != baseline[q]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Repeated-query workload: the plan cache must be carrying the load.
  PlanCacheStats stats = server_->plan_cache().stats();
  EXPECT_GT(stats.hit_rate(), 0.9)
      << "hit rate " << stats.hit_rate() << " on " << stats.hits << "/"
      << stats.hits + stats.misses;
  // And the parse-once AST memo equally so.
  EXPECT_GT(server_->session().ast_hits(), 0u);
}

TEST_F(ServerIntegrationTest, ExplainAndAnalyzeVerbs) {
  StartServer(ServerOptions());
  FroClient client = MakeClient();
  Result<Response> explain =
      client.Explain("Select All From DEPARTMENT-->Manager-->Audit");
  ASSERT_TRUE(explain.ok());
  ASSERT_TRUE(explain->status.ok()) << explain->status.ToString();
  EXPECT_NE(explain->body.find("Scan"), std::string::npos);

  Result<Response> analyze =
      client.Analyze("Select All From DEPARTMENT-->Manager-->Audit");
  ASSERT_TRUE(analyze.ok());
  ASSERT_TRUE(analyze->status.ok());
  EXPECT_NE(analyze->body.find("rows"), std::string::npos);
}

TEST_F(ServerIntegrationTest, DeadlineExceededOnHeavyQuery) {
  db_ = MakeScaledCompanyNestedDb(150);
  ServerOptions options;
  options.default_deadline_ms = 30;
  StartServer(options);
  FroClient client = MakeClient();
  // A cubic self-join on the low-cardinality Rank column: ~600^3/16
  // result tuples, far beyond what 30ms allows.
  Result<Response> r = client.Query(
      "Select All From EMPLOYEE E1, EMPLOYEE E2, EMPLOYEE E3 "
      "Where E1.Rank = E2.Rank and E2.Rank = E3.Rank");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status.code(), StatusCode::kDeadlineExceeded)
      << r->status.ToString();
}

TEST_F(ServerIntegrationTest, CancelStopsTaggedQuery) {
  db_ = MakeScaledCompanyNestedDb(150);
  ServerOptions options;
  options.default_deadline_ms = 120000;  // cancel, not the deadline
  StartServer(options);

  std::atomic<bool> done{false};
  Status query_status = Internal("never ran");
  std::thread runner([&] {
    FroClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
    Result<Response> r = client.Query(
        "Select All From EMPLOYEE E1, EMPLOYEE E2, EMPLOYEE E3 "
        "Where E1.Rank = E2.Rank and E2.Rank = E3.Rank",
        /*tag=*/"victim");
    if (r.ok()) query_status = r->status;
    done.store(true);
  });

  // Poll CANCEL until the tag is visible as in-flight (NotFound until the
  // worker registers it), then confirm the runner observed cancellation.
  FroClient canceller = MakeClient();
  bool cancelled = false;
  for (int attempt = 0; attempt < 2000 && !done.load(); ++attempt) {
    Result<Response> c = canceller.Cancel("victim");
    ASSERT_TRUE(c.ok());
    if (c->status.ok()) {
      cancelled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();
  ASSERT_TRUE(cancelled) << "query finished before CANCEL could land";
  EXPECT_EQ(query_status.code(), StatusCode::kCancelled)
      << query_status.ToString();
}

TEST_F(ServerIntegrationTest, AdmissionControlShedsLoad) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_pending = 0;  // every connection is refused at admission
  StartServer(options);
  FroClient client = MakeClient();
  Result<Response> r = client.Ping();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status.code(), StatusCode::kResourceExhausted)
      << r->status.ToString();
  EXPECT_GE(server_->metrics().rejected(), 1u);
}

TEST_F(ServerIntegrationTest, TooManyRelationsKeepsTheConnection) {
  StartServer(ServerOptions());
  FroClient client = MakeClient();
  // 70 EMPLOYEE aliases plus REPORT: past the query graph's 64 nodes.
  std::string query = "Select All From ";
  std::string where = " Where ";
  for (int i = 1; i <= 70; ++i) {
    query += "EMPLOYEE e" + std::to_string(i) + ", ";
    if (i > 1) {
      where += "e" + std::to_string(i - 1) + ".D# = e" + std::to_string(i) +
               ".D# and ";
    }
  }
  query += "REPORT" + where + "REPORT.Cost = 1";
  Result<Response> rejected = client.Query(query);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status.code(), StatusCode::kInvalidArgument)
      << rejected->status.ToString();

  Result<Response> next = client.Query(kWorkload[0]);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next->status.ok()) << next->status.ToString();
}

// The QUERY verb drains columns and renders them without a row Tuple;
// each Section-5 query must still be served with exactly the bytes
// PrettyTable renders for RunQuery's relation. Without a plan cache or
// feedback the footer's notes match RunQuery's too.
TEST(ServerColumnarResultTest, Section5QueriesServeRunQueryBytes) {
  for (int scale : {1, 20}) {
    const NestedDb db =
        scale == 1 ? MakeCompanyNestedDb() : MakeScaledCompanyNestedDb(scale);
    ServerOptions options;
    options.plan_cache_capacity = 0;
    options.enable_feedback = false;
    FroServer server(&db, options);
    ASSERT_TRUE(server.Start().ok());
    FroClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    PrettyOptions pretty;
    pretty.max_rows = static_cast<size_t>(-1);
    for (const std::string& text : Section5SampleQueries()) {
      Result<QueryRunResult> local = RunQuery(db, text);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      const std::string footer = "(" +
                                 std::to_string(local->relation.NumRows()) +
                                 " rows; " + local->optimize.Summary() + ")\n";
      Result<Response> served = client.Query(text);
      ASSERT_TRUE(served.ok() && served->status.ok()) << text;
      EXPECT_EQ(served->body,
                PrettyTable(local->relation,
                            &local->translation.db->catalog(), pretty,
                            footer))
          << "scale " << scale << ": " << text;
    }
    server.Stop();
  }
}

TEST_F(ServerIntegrationTest, StopWhileClientsConnected) {
  StartServer(ServerOptions());
  FroClient client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();  // must not hang with the connection still open
  Result<Response> after = client.Ping();
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace fro
