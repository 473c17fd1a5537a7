// The wire protocol, exercised at every layer: request/response
// parse/serialize round trips (including the `?threads=` option),
// strict OK-line parsing ("OKgarbage" is a malformed frame, not an
// empty-body success), the gathered OK frame's bytes (identical to the
// serialized response's frame), and the socket framing over a socketpair —
// truncated headers, over-limit declared lengths, and the peer dying
// between a frame's header and its payload, which must be reported as a
// mid-frame EOF (and counted as a frame error by the server), never as
// a clean close. Plus the ThreadBudget admission-control pool and an
// end-to-end `?threads=` query against a live server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

// --- request parse/serialize ----------------------------------------------

TEST(ParseRequestTest, VerbTagThreadsArgumentRoundTrip) {
  Request request;
  request.verb = Verb::kQuery;
  request.tag = "t7";
  request.threads = 4;
  request.argument = "Select All From EMPLOYEE";
  const std::string payload = SerializeRequest(request);
  EXPECT_EQ(payload, "QUERY@t7?threads=4 Select All From EMPLOYEE");

  Result<Request> parsed = ParseRequest(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, Verb::kQuery);
  EXPECT_EQ(parsed->tag, "t7");
  EXPECT_EQ(parsed->threads, 4);
  EXPECT_EQ(parsed->argument, request.argument);
}

TEST(ParseRequestTest, ThreadsWithoutTag) {
  Result<Request> parsed = ParseRequest("ANALYZE?threads=2 Select All From X");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->verb, Verb::kAnalyze);
  EXPECT_TRUE(parsed->tag.empty());
  EXPECT_EQ(parsed->threads, 2);
  EXPECT_EQ(parsed->argument, "Select All From X");
}

TEST(ParseRequestTest, ThreadsDefaultsToUnset) {
  Result<Request> parsed = ParseRequest("PING");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->threads, 0);
}

TEST(ParseRequestTest, MalformedOptionsRejected) {
  EXPECT_FALSE(ParseRequest("QUERY? Select All From X").ok());
  EXPECT_FALSE(ParseRequest("QUERY?threads= Select All From X").ok());
  EXPECT_FALSE(ParseRequest("QUERY?threads=abc Select All From X").ok());
  EXPECT_FALSE(ParseRequest("QUERY?workers=4 Select All From X").ok());
  EXPECT_FALSE(ParseRequest("QUERY?threads=2,threads=x Sel").ok());
}

TEST(ParseRequestTest, HostileThreadCountIsCappedNotOverflowed) {
  Result<Request> parsed =
      ParseRequest("QUERY?threads=99999999999999999999 Select All From X");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed->threads, 0);
  EXPECT_LE(parsed->threads, 4096);
}

TEST(ParseRequestTest, UnknownVerbAndMissingArgumentStillFail) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB x").ok());
  EXPECT_FALSE(ParseRequest("QUERY").ok());
  EXPECT_FALSE(ParseRequest("QUERY@ x").ok());
}

// --- response parse/serialize ---------------------------------------------

TEST(ParseResponseTest, OkBodyRoundTrip) {
  Response response;
  response.body = "a table\nwith rows\n";
  const std::string payload = SerializeResponse(response);
  Result<Response> parsed = ParseResponse(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_EQ(parsed->body, response.body);
}

TEST(ParseResponseTest, BareOkIsEmptyBody) {
  Result<Response> parsed = ParseResponse("OK");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_TRUE(parsed->body.empty());

  parsed = ParseResponse("OK\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->body.empty());
}

TEST(ParseResponseTest, OkGluedToGarbageIsMalformed) {
  // The historical bug: any payload *starting* with "OK" parsed as a
  // successful empty-body response, silently discarding the rest.
  Result<Response> parsed = ParseResponse("OKgarbage");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseResponse("OK2\nbody").ok());
  EXPECT_FALSE(ParseResponse("ERRInvalidArgument nope").ok());
  EXPECT_FALSE(ParseResponse("").ok());
}

TEST(ParseResponseTest, ErrRoundTrip) {
  Response response;
  response.status = NotFound("no such\nthing");
  Result<Response> parsed = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status.code(), StatusCode::kNotFound);
  // Newlines are folded to keep the status line parseable.
  EXPECT_EQ(parsed->status.message(), "no such thing");
}

// --- socket framing over a socketpair -------------------------------------

class FramePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    CloseWriter();
    CloseReader();
  }
  void CloseWriter() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseReader() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }
  int writer() const { return fds_[0]; }
  int reader() const { return fds_[1]; }

  int fds_[2] = {-1, -1};
};

TEST_F(FramePairTest, WriteReadRoundTrip) {
  const std::string payloads[] = {"", "x", std::string(100000, 'q'),
                                  "QUERY?threads=3 Select All From X"};
  for (const std::string& sent : payloads) {
    ASSERT_TRUE(WriteFrame(writer(), sent).ok());
    std::string got;
    bool mid_frame_eof = true;
    ASSERT_TRUE(ReadFrame(reader(), &got, &mid_frame_eof).ok());
    EXPECT_EQ(got, sent);
    EXPECT_FALSE(mid_frame_eof);
  }
}

TEST_F(FramePairTest, CleanCloseAtFrameBoundary) {
  ASSERT_TRUE(WriteFrame(writer(), "ping").ok());
  CloseWriter();
  std::string got;
  ASSERT_TRUE(ReadFrame(reader(), &got).ok());
  EXPECT_EQ(got, "ping");
  bool mid_frame_eof = true;
  Status status = ReadFrame(reader(), &got, &mid_frame_eof);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "connection closed");
  EXPECT_FALSE(mid_frame_eof);
}

TEST_F(FramePairTest, TruncatedHeaderIsMidFrame) {
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(writer(), partial, 2, MSG_NOSIGNAL), 2);
  CloseWriter();
  std::string got;
  bool mid_frame_eof = false;
  Status status = ReadFrame(reader(), &got, &mid_frame_eof);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "connection closed mid-frame");
  EXPECT_TRUE(mid_frame_eof);
}

TEST_F(FramePairTest, DeathBetweenHeaderAndPayloadIsMidFrame) {
  // The historical bug: a peer that sent a complete header declaring a
  // payload and then died was reported as a clean "connection closed",
  // indistinguishable from a frame-boundary EOF.
  const char header[4] = {0, 0, 0, 8};  // declares 8 bytes, sends none
  ASSERT_EQ(::send(writer(), header, 4, MSG_NOSIGNAL), 4);
  CloseWriter();
  std::string got;
  bool mid_frame_eof = false;
  Status status = ReadFrame(reader(), &got, &mid_frame_eof);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "connection closed mid-frame");
  EXPECT_TRUE(mid_frame_eof);
}

TEST_F(FramePairTest, DeathInsidePayloadIsMidFrame) {
  const char header[4] = {0, 0, 0, 8};
  ASSERT_EQ(::send(writer(), header, 4, MSG_NOSIGNAL), 4);
  ASSERT_EQ(::send(writer(), "abc", 3, MSG_NOSIGNAL), 3);
  CloseWriter();
  std::string got;
  bool mid_frame_eof = false;
  Status status = ReadFrame(reader(), &got, &mid_frame_eof);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(mid_frame_eof);
}

TEST_F(FramePairTest, OverLimitDeclaredLengthRejected) {
  // 0x7FFFFFFF bytes declared: must fail fast on the four header bytes,
  // not attempt the allocation or wait for a payload.
  const char header[4] = {0x7F, (char)0xFF, (char)0xFF, (char)0xFF};
  ASSERT_EQ(::send(writer(), header, 4, MSG_NOSIGNAL), 4);
  std::string got;
  bool mid_frame_eof = false;
  Status status = ReadFrame(reader(), &got, &mid_frame_eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(mid_frame_eof);
}

TEST_F(FramePairTest, OversizedPayloadRefusedBeforeSending) {
  const std::string big(kMaxFrameBytes + 1, 'z');
  EXPECT_EQ(WriteFrame(writer(), big).code(), StatusCode::kInvalidArgument);
}

// Reads exactly `n` raw bytes (header included) off the socket.
std::string ReadRaw(int fd, size_t n) {
  std::string out(n, '\0');
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out.data() + got, n - got, 0);
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  out.resize(got);
  return out;
}

TEST_F(FramePairTest, GatheredResponseBytesEqualSerializedFrame) {
  std::vector<Response> responses(5);
  responses[1].body = "OK";
  responses[2].body = "a | b\n--+--\n1 | 2\n(1 rows; x)\n";
  responses[3].body = std::string(50000, 'q');
  responses[4].status = NotFound("no such\nthing");
  for (const Response& response : responses) {
    const size_t n = 4 + SerializeResponse(response).size();
    ASSERT_TRUE(WriteFrame(writer(), SerializeResponse(response)).ok());
    const std::string expected = ReadRaw(reader(), n);
    ASSERT_TRUE(WriteResponse(writer(), response).ok());
    EXPECT_EQ(ReadRaw(reader(), n), expected) << response.body.size();

    ASSERT_TRUE(WriteResponse(writer(), response).ok());
    std::string payload;
    ASSERT_TRUE(ReadFrame(reader(), &payload).ok());
    Result<Response> parsed = ParseResponse(std::move(payload));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->status.code(), response.status.code());
    EXPECT_EQ(parsed->body, response.body);
  }
}

TEST_F(FramePairTest, OversizedOkBodyRefusedBeforeSending) {
  Response response;
  response.body.assign(kMaxOkBodyBytes + 1, 'z');
  EXPECT_EQ(WriteResponse(writer(), response).code(),
            StatusCode::kInvalidArgument);
}

// --- ThreadBudget ----------------------------------------------------------

TEST(ThreadBudgetTest, GrantsAtMostAvailable) {
  ThreadBudget budget(3);
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_EQ(budget.TryAcquire(2), 2u);
  EXPECT_EQ(budget.available(), 1u);
  // Best-effort: asking for more than remains grants what's left.
  EXPECT_EQ(budget.TryAcquire(5), 1u);
  // A dry pool grants zero — the query runs serially.
  EXPECT_EQ(budget.TryAcquire(4), 0u);
  budget.Release(3);
  EXPECT_EQ(budget.available(), 3u);
}

TEST(ThreadBudgetTest, ConcurrentAcquireReleaseConserves) {
  ThreadBudget budget(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&budget] {
      for (int round = 0; round < 200; ++round) {
        const size_t granted = budget.TryAcquire(3);
        budget.Release(granted);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.available(), 4u);
}

// --- end to end ------------------------------------------------------------

class ProtocolServerTest : public ::testing::Test {
 protected:
  ProtocolServerTest() : db_(MakeCompanyNestedDb()) {}

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<FroServer>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  NestedDb db_;
  std::unique_ptr<FroServer> server_;
};

TEST_F(ProtocolServerTest, ThreadsOptionServedAndBudgetRestored) {
  ServerOptions options;
  options.max_query_threads = 4;
  options.exec_thread_budget = 3;
  StartServer(options);

  FroClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Warm the plan cache so both bodies carry the same provenance note
  // (cold and warm responses differ in the notes line by design).
  const std::string query =
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#";
  {
    Result<Response> warmup = client.Query(query);
    ASSERT_TRUE(warmup.ok());
    ASSERT_TRUE(warmup->status.ok()) << warmup->status.ToString();
  }
  Result<Response> serial = client.Query(query);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->status.ok()) << serial->status.ToString();

  Request request;
  request.verb = Verb::kQuery;
  request.threads = 4;
  request.argument = query;
  Result<Response> parallel = client.Call(request);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(parallel->status.ok()) << parallel->status.ToString();
  // Canonical rendering: the parallel run must be byte-identical.
  EXPECT_EQ(parallel->body, serial->body);

  // The extras were returned to the pool.
  Result<Response> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("exec_threads max_per_query=4 budget=3 "
                             "available=3"),
            std::string::npos)
      << stats->body;
}

TEST_F(ProtocolServerTest, MidFrameDeathCountsAsFrameError) {
  StartServer(ServerOptions());
  const uint64_t before = server_->metrics().frame_errors();
  {
    FroClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    Result<Response> pong = client.Ping();
    ASSERT_TRUE(pong.ok());
  }
  // Raw connection: send a header declaring a payload, then vanish.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char header[4] = {0, 0, 0, 42};
  ASSERT_EQ(::send(fd, header, 4, MSG_NOSIGNAL), 4);
  ::close(fd);
  // The worker notices the torn frame as soon as it reads the EOF.
  for (int i = 0; i < 200 && server_->metrics().frame_errors() == before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server_->metrics().frame_errors(), before);
}

}  // namespace
}  // namespace fro
