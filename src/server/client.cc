#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace fro {

FroClient::~FroClient() { Close(); }

Status FroClient::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    Close();
    return InvalidArgument("unparseable host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Unavailable(std::string("connect: ") + std::strerror(errno));
    Close();
    return status;
  }
  return Status::Ok();
}

void FroClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Response> FroClient::Call(const Request& request) {
  if (fd_ < 0) return FailedPrecondition("client not connected");
  FRO_RETURN_IF_ERROR(WriteFrame(fd_, SerializeRequest(request)));
  std::string payload;
  FRO_RETURN_IF_ERROR(ReadFrame(fd_, &payload));
  return ParseResponse(std::move(payload));
}

Result<Response> FroClient::Query(const std::string& text,
                                  const std::string& tag) {
  Request request;
  request.verb = Verb::kQuery;
  request.argument = text;
  request.tag = tag;
  return Call(request);
}

Result<Response> FroClient::Explain(const std::string& text) {
  Request request;
  request.verb = Verb::kExplain;
  request.argument = text;
  return Call(request);
}

Result<Response> FroClient::Analyze(const std::string& text) {
  Request request;
  request.verb = Verb::kAnalyze;
  request.argument = text;
  return Call(request);
}

Result<Response> FroClient::Stats() {
  Request request;
  request.verb = Verb::kStats;
  return Call(request);
}

Result<Response> FroClient::Cancel(const std::string& tag) {
  Request request;
  request.verb = Verb::kCancel;
  request.argument = tag;
  return Call(request);
}

Result<Response> FroClient::Ping() {
  Request request;
  request.verb = Verb::kPing;
  return Call(request);
}

}  // namespace fro
