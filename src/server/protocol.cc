#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/str_util.h"

namespace fro {

namespace {

// Verb spellings, indexed by Verb.
constexpr const char* kVerbNames[] = {"QUERY",  "EXPLAIN", "ANALYZE",
                                      "STATS",  "CANCEL",  "PING"};

bool VerbRequiresArgument(Verb verb) {
  return verb == Verb::kQuery || verb == Verb::kExplain ||
         verb == Verb::kAnalyze || verb == Verb::kCancel;
}

// Reads exactly `n` bytes. Only an EOF before the first byte of a frame
// *header* is a clean close; with `mid_frame` set — the payload read,
// which begins with the peer already committed to `n` more bytes — EOF at
// any offset, including zero, is a torn frame and is reported through
// `*mid_frame_eof`.
Status ReadFull(int fd, char* out, size_t n, bool mid_frame,
                bool* mid_frame_eof) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) {
      if (!mid_frame && got == 0) return Unavailable("connection closed");
      if (mid_frame_eof != nullptr) *mid_frame_eof = true;
      return Unavailable("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("recv failed: ") + std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

// Parses the `?opt[,opt...]` suffix of a request head into `request`.
Status ParseRequestOptions(const std::string& text, Request* request) {
  if (text.empty()) return InvalidArgument("empty options after '?'");
  size_t pos = 0;
  while (true) {
    const size_t comma = text.find(',', pos);
    const std::string option =
        comma == std::string::npos ? text.substr(pos)
                                   : text.substr(pos, comma - pos);
    const size_t eq = option.find('=');
    const std::string name = option.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : option.substr(eq + 1);
    if (name == "threads") {
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        return InvalidArgument("threads= expects a decimal count, got '" +
                               value + "'");
      }
      unsigned long parsed = std::strtoul(value.c_str(), nullptr, 10);
      // The session clamps to its real maximum anyway; capping here just
      // keeps a hostile digit string from overflowing int.
      if (parsed > 4096) parsed = 4096;
      request->threads = static_cast<int>(parsed);
    } else {
      return InvalidArgument("unknown request option: " + option);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return Status::Ok();
}

}  // namespace

const char* VerbName(Verb verb) {
  return kVerbNames[static_cast<size_t>(verb)];
}

Result<Request> ParseRequest(const std::string& payload) {
  if (payload.empty()) return InvalidArgument("empty request frame");
  const size_t space = payload.find(' ');
  std::string head = payload.substr(0, space);
  Request request;
  if (space != std::string::npos) {
    request.argument = payload.substr(space + 1);
  }
  const size_t question = head.find('?');
  std::string options_text;
  bool have_options = false;
  if (question != std::string::npos) {
    options_text = head.substr(question + 1);
    head = head.substr(0, question);
    have_options = true;
  }
  const size_t at = head.find('@');
  if (at != std::string::npos) {
    request.tag = head.substr(at + 1);
    head = head.substr(0, at);
    if (request.tag.empty()) return InvalidArgument("empty tag after '@'");
  }
  if (have_options) {
    FRO_RETURN_IF_ERROR(ParseRequestOptions(options_text, &request));
  }
  bool known = false;
  for (size_t i = 0; i < std::size(kVerbNames); ++i) {
    if (head == kVerbNames[i]) {
      request.verb = static_cast<Verb>(i);
      known = true;
      break;
    }
  }
  if (!known) return InvalidArgument("unknown verb: " + head);
  if (VerbRequiresArgument(request.verb) && request.argument.empty()) {
    return InvalidArgument(std::string(VerbName(request.verb)) +
                           " requires an argument");
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::string out = VerbName(request.verb);
  if (!request.tag.empty()) {
    out += '@';
    out += request.tag;
  }
  if (request.threads > 0) {
    out += "?threads=";
    out += std::to_string(request.threads);
  }
  if (!request.argument.empty()) {
    out += ' ';
    out += request.argument;
  }
  return out;
}

std::string SerializeResponse(const Response& response) {
  if (response.status.ok()) return "OK\n" + response.body;
  // Error messages are folded to one line so the status line stays
  // parseable.
  std::string message = response.status.message();
  for (char& c : message) {
    if (c == '\n') c = ' ';
  }
  return std::string("ERR ") + StatusCodeName(response.status.code()) + " " +
         message;
}

Result<Response> ParseResponse(std::string payload) {
  Response response;
  if (StartsWith(payload, "OK\n")) {
    payload.erase(0, 3);
    response.body = std::move(payload);
    return response;
  }
  // A bare "OK" status line with no body is legal; anything else glued
  // onto the OK ("OKgarbage") is a malformed frame, not a success.
  if (payload == "OK") return response;
  if (!StartsWith(payload, "ERR ")) {
    return InvalidArgument("malformed response frame");
  }
  const std::string rest = payload.substr(4);
  const size_t space = rest.find(' ');
  const std::string code_name = rest.substr(0, space);
  const std::string message =
      space == std::string::npos ? "" : rest.substr(space + 1);
  response.status = Status(StatusCodeFromName(code_name), message);
  return response;
}

namespace {

// Writes one frame whose payload is `head` followed by `tail`: the
// 4-byte header and both parts leave through one gathering sendmsg, so
// nothing is copied into a wire buffer.
Status WriteGathered(int fd, std::string_view head, std::string_view tail) {
  const size_t size = head.size() + tail.size();
  if (size > kMaxFrameBytes) {
    return InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  const uint32_t n = static_cast<uint32_t>(size);
  char header[4] = {static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                    static_cast<char>(n >> 8), static_cast<char>(n)};
  struct iovec iov[3];
  size_t count = 0;
  iov[count].iov_base = header;
  iov[count++].iov_len = sizeof(header);
  for (std::string_view part : {head, tail}) {
    if (part.empty()) continue;
    iov[count].iov_base = const_cast<char*>(part.data());
    iov[count++].iov_len = part.size();
  }
  struct msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE, not a
    // process-wide SIGPIPE.
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("send failed: ") + std::strerror(errno));
    }
    size_t done = static_cast<size_t>(r);
    while (msg.msg_iovlen > 0 && done >= msg.msg_iov[0].iov_len) {
      done -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0 && done > 0) {
      msg.msg_iov[0].iov_base =
          static_cast<char*>(msg.msg_iov[0].iov_base) + done;
      msg.msg_iov[0].iov_len -= done;
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  return WriteGathered(fd, payload, {});
}

Status WriteResponse(int fd, const Response& response) {
  if (!response.status.ok()) {
    return WriteFrame(fd, SerializeResponse(response));
  }
  return WriteGathered(fd, "OK\n", response.body);
}

Status ReadFrame(int fd, std::string* payload, bool* mid_frame_eof) {
  if (mid_frame_eof != nullptr) *mid_frame_eof = false;
  char header[4];
  FRO_RETURN_IF_ERROR(
      ReadFull(fd, header, 4, /*mid_frame=*/false, mid_frame_eof));
  const uint32_t n = (static_cast<uint32_t>(static_cast<unsigned char>(
                          header[0]))
                      << 24) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(
                          header[1]))
                      << 16) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(
                          header[2]))
                      << 8) |
                     static_cast<uint32_t>(static_cast<unsigned char>(
                         header[3]));
  if (n > kMaxFrameBytes) {
    return InvalidArgument("declared frame length " + std::to_string(n) +
                           " exceeds limit " + std::to_string(kMaxFrameBytes));
  }
  payload->resize(n);
  if (n == 0) return Status::Ok();
  // The header committed the peer to `n` more bytes: an EOF here — even
  // before the payload's first byte — is a torn frame, never a clean
  // close.
  return ReadFull(fd, payload->data(), n, /*mid_frame=*/true, mid_frame_eof);
}

}  // namespace fro
