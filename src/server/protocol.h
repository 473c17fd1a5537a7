// The fro_serve wire protocol: length-prefixed text frames over TCP.
//
// Framing. Every message — request or response — is one frame:
//
//   frame    := length payload
//   length   := uint32, big-endian, byte count of `payload`
//   payload  := UTF-8 text, at most kMaxFrameBytes bytes
//
// Requests. The payload's first token is the verb, optionally suffixed
// with a client-chosen tag (`VERB@tag`) and/or request options
// (`VERB?threads=4`); the rest of the payload is the argument:
//
//   request  := verb ['@' tag] ['?' options] [' ' argument]
//   verb     := QUERY | EXPLAIN | ANALYZE | STATS | CANCEL | PING
//   options  := option (',' option)*
//   option   := "threads=" 1*DIGIT
//
//   QUERY   <section-5 query>   run, reply with the canonical result table
//   EXPLAIN <section-5 query>   reply with the optimized plan + estimates
//   ANALYZE <section-5 query>   execute instrumented, actual vs. estimated
//   STATS                       server metrics + plan-cache counters
//   CANCEL  <tag>               cooperatively stop the running query whose
//                               QUERY verb carried @<tag>
//   PING                        liveness probe, replies "pong"
//
// Responses. The first line is the status, the rest is the body:
//
//   response := "OK\n" body
//             | "ERR " code-name " " message "\n"
//   code-name := StatusCodeName spelling, e.g. InvalidArgument
//
// Malformed frames (oversized length, truncated payload, unknown verb)
// never kill the server: they produce an ERR response — or, when the
// framing itself is unrecoverable, a closed connection — and the serving
// loop moves on.

#ifndef FRO_SERVER_PROTOCOL_H_
#define FRO_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace fro {

/// Hard cap on one frame's payload; a declared length beyond this is
/// treated as a framing error (protects the server from a 4 GiB malloc
/// driven by four hostile bytes).
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Largest body an OK response can carry: its payload is "OK\n" + body.
inline constexpr size_t kMaxOkBodyBytes = kMaxFrameBytes - 3;

/// Request verbs, in wire spelling.
enum class Verb : uint8_t {
  kQuery,
  kExplain,
  kAnalyze,
  kStats,
  kCancel,
  kPing,
};

const char* VerbName(Verb verb);

struct Request {
  Verb verb = Verb::kPing;
  /// Verb argument (query text, cancel tag); may be empty.
  std::string argument;
  /// Client-chosen tag from `VERB@tag`, empty if absent. A tagged QUERY
  /// is cancellable via CANCEL <tag> from any connection.
  std::string tag;
  /// Requested intra-query worker threads from `VERB?threads=N`; 0 means
  /// unset (the session's default applies). The session clamps the
  /// request to its per-query maximum and to the server's shared thread
  /// budget — a `threads=` option is a hint, never a reservation.
  int threads = 0;
};

struct Response {
  Status status;
  /// Response body (result table, plan text, metrics dump); empty on
  /// errors.
  std::string body;
};

/// Parses a request payload. Fails on an empty payload, an unknown verb,
/// or a missing required argument.
Result<Request> ParseRequest(const std::string& payload);

/// Renders a request as a frame payload (client side).
std::string SerializeRequest(const Request& request);

/// Renders/parses the response payload ("OK\n<body>" / "ERR code msg").
/// ParseResponse strips an OK payload's status line in place and moves
/// the rest into the body.
std::string SerializeResponse(const Response& response);
Result<Response> ParseResponse(std::string payload);

// --- Socket framing (blocking fd I/O) --------------------------------------

/// Writes one frame. `fd` must be a connected stream socket. Header and
/// payload go out through one gathering sendmsg — no per-response
/// header+payload copy into a wire buffer.
Status WriteFrame(int fd, const std::string& payload);

/// Writes `response` as one frame carrying SerializeResponse(response).
/// An OK response gathers the header, the "OK\n" status line and the
/// body into one sendmsg, so the body is never copied.
Status WriteResponse(int fd, const Response& response);

/// Reads one frame into `*payload`. Returns Unavailable("connection
/// closed") on a clean EOF at a frame boundary, InvalidArgument on an
/// oversized declared length, and Unavailable("connection closed
/// mid-frame") when the peer dies inside a frame — including between the
/// header and its payload. When `mid_frame_eof` is non-null it is set
/// exactly on that mid-frame EOF case, so servers can count torn frames
/// (frame_errors) without string-matching the status.
Status ReadFrame(int fd, std::string* payload,
                 bool* mid_frame_eof = nullptr);

}  // namespace fro

#endif  // FRO_SERVER_PROTOCOL_H_
