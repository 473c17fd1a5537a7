// Fuzz-style robustness: malformed and truncated protocol frames plus
// malformed Section 5 query texts must produce error responses (or a
// dropped connection) while the server keeps serving everyone else, and
// a result too large for one frame is an error on a live connection. The
// sanitizer CI jobs run this binary under ASan/TSan, so surviving also
// means no leaks and no races on the error paths.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lang/lang.h"
#include "relational/pretty.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

// A raw TCP connection that bypasses the framing helpers, for sending
// deliberately broken bytes.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void SendBytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Half-closes the write side so the server sees EOF once it has
  /// consumed every frame — required before DrainUntilClose on a
  /// connection the server would otherwise keep serving.
  void FinishWrites() { ::shutdown(fd_, SHUT_WR); }

  void SendFramed(const std::string& payload) {
    const uint32_t n = static_cast<uint32_t>(payload.size());
    std::string wire;
    wire.push_back(static_cast<char>(n >> 24));
    wire.push_back(static_cast<char>(n >> 16));
    wire.push_back(static_cast<char>(n >> 8));
    wire.push_back(static_cast<char>(n));
    wire += payload;
    SendBytes(wire);
  }

  /// Reads whatever arrives until the peer closes or `max` bytes.
  std::string DrainUntilClose(size_t max = 1 << 16) {
    std::string out;
    char buf[4096];
    while (out.size() < max) {
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class ServerRobustnessTest : public ::testing::Test {
 protected:
  ServerRobustnessTest() : db_(MakeCompanyNestedDb()) {}

  void SetUp() override {
    ServerOptions options;
    options.num_workers = 4;
    // Deep admission queue: this suite floods the server with dozens of
    // short-lived garbage connections, and shedding the liveness probe
    // with ResourceExhausted would be a false failure.
    options.max_pending = 128;
    server_ = std::make_unique<FroServer>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The liveness probe every scenario ends with: a fresh well-formed
  /// client must still get served.
  void AssertServerAlive() {
    FroClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    Result<Response> pong = client.Ping();
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->status.ok());
    Result<Response> result =
        client.Query("Select All From EMPLOYEE Where EMPLOYEE.Rank = 7");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  }

  NestedDb db_;
  std::unique_ptr<FroServer> server_;
};

TEST_F(ServerRobustnessTest, OversizedDeclaredLength) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.SendBytes(std::string("\xFF\xFF\xFF\xFF", 4));
  const std::string reply = conn.DrainUntilClose();
  EXPECT_NE(reply.find("InvalidArgument"), std::string::npos) << reply;
  AssertServerAlive();
}

TEST_F(ServerRobustnessTest, TruncatedFrameThenClose) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    // Declares 100 bytes, delivers 10, disappears.
    conn.SendBytes(std::string("\x00\x00\x00\x64", 4) + "QUERY Sele");
  }
  AssertServerAlive();
}

TEST_F(ServerRobustnessTest, HeaderOnlyThenClose) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    conn.SendBytes(std::string("\x00\x00", 2));  // half a header
  }
  AssertServerAlive();
}

TEST_F(ServerRobustnessTest, EmptyAndGarbagePayloadsKeepConnectionUsable) {
  // An empty frame and assorted garbage verbs: each one answered with an
  // error on the same connection.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  conn.SendFramed("");
  conn.SendFramed("BOGUSVERB do things");
  conn.SendFramed("QUERY");    // missing argument
  conn.SendFramed("CANCEL");   // missing argument
  conn.SendFramed("QUERY@ x");  // empty tag
  conn.SendFramed(std::string("\x01\x02\x03\x7f garbage", 12));
  conn.SendFramed("PING");  // still parseable => the connection survived
  conn.FinishWrites();
  const std::string replies = conn.DrainUntilClose(1 << 12);
  EXPECT_NE(replies.find("ERR InvalidArgument"), std::string::npos);
  EXPECT_NE(replies.find("pong"), std::string::npos);
  AssertServerAlive();
}

TEST_F(ServerRobustnessTest, MalformedQueriesReturnErrorsNotCrashes) {
  FroClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const char* bad_queries[] = {
      "Select",
      "Select All",
      "Select All From",
      "Select All From NOSUCHTYPE",
      "Select All From EMPLOYEE*NoSuchField",
      "Select All From EMPLOYEE-->Rank",  // scalar, not entity-valued
      "Select All From EMPLOYEE, REPORT",  // disconnected
      "Select All From EMPLOYEE Where",
      "Select All From EMPLOYEE Where EMPLOYEE.Rank",
      "Select All From EMPLOYEE Where EMPLOYEE.Rank = ",
      "Select All From EMPLOYEE, EMPLOYEE",  // duplicate variable
      ")(*&^%$#@!",
  };
  for (const char* bad : bad_queries) {
    Result<Response> r = client.Query(bad);
    ASSERT_TRUE(r.ok()) << "transport died on: " << bad;
    EXPECT_FALSE(r->status.ok()) << "accepted: " << bad;
  }
  AssertServerAlive();
}

TEST_F(ServerRobustnessTest, RandomBytesNeverKillTheServer) {
  Rng rng(20260806);
  for (int round = 0; round < 32; ++round) {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    // Random length prefix (bounded sane) + random payload bytes, or raw
    // unframed noise every third round.
    std::string noise;
    const size_t len = rng.Uniform(64) + 1;
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(rng.Uniform(256)));
    }
    if (round % 3 == 0) {
      conn.SendBytes(noise);
    } else {
      conn.SendFramed(noise);
    }
  }
  AssertServerAlive();
  // The error paths were actually exercised, not silently skipped.
  EXPECT_GT(server_->metrics().frame_errors(), 0u);
}

// A QUERY whose table is larger than one frame is answered with
// ResourceExhausted, naming its row count and rendered size, and the
// connection keeps serving: the server used to render the table, have
// WriteFrame refuse it, and drop the connection.
TEST(ServerOversizedResultTest, OverLimitTableIsAnErrorOnALiveConnection) {
  // The unconstrained five-way self-join grows with the square of the
  // scale: about 375 KB rendered at scale 20.
  constexpr int kScale = 40;
  const char* const kFiveWay =
      "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
      "DEPARTMENT D2, EMPLOYEE E3 "
      "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
      "and E3.D# = D2.D#";
  const NestedDb db = MakeScaledCompanyNestedDb(kScale);
  Result<QueryRunResult> local = RunQuery(db, kFiveWay);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  PrettyOptions pretty;
  pretty.max_rows = static_cast<size_t>(-1);
  const size_t table_bytes =
      PrettyTable(local->relation, &local->translation.db->catalog(), pretty)
          .size();
  ASSERT_GT(table_bytes, kMaxFrameBytes);

  FroServer server(&db, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  FroClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Result<Response> big = client.Query(kFiveWay);
  ASSERT_TRUE(big.ok()) << "transport died: " << big.status().ToString();
  EXPECT_EQ(big->status.code(), StatusCode::kResourceExhausted)
      << big->status.ToString();
  EXPECT_NE(big->status.message().find(
                "result of " + std::to_string(local->relation.NumRows()) +
                " rows renders to "),
            std::string::npos)
      << big->status.message();
  EXPECT_TRUE(big->body.empty());

  Result<Response> small =
      client.Query("Select All From EMPLOYEE Where EMPLOYEE.Rank = 7");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_TRUE(small->status.ok()) << small->status.ToString();
  EXPECT_FALSE(small->body.empty());
  server.Stop();
}

}  // namespace
}  // namespace fro
