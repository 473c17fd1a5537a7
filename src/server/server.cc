#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "server/protocol.h"

namespace fro {

FroServer::FroServer(const NestedDb* db, ServerOptions options)
    : db_(db),
      options_(options),
      plan_cache_(options.plan_cache_capacity, options.q_error_threshold),
      feedback_store_([&options] {
        FeedbackOptions feedback_options;
        feedback_options.capacity = options.feedback_capacity;
        return feedback_options;
      }()),
      thread_budget_(options.exec_thread_budget > 0
                         ? static_cast<size_t>(options.exec_thread_budget)
                         : 0),
      session_(nullptr) {
  SessionOptions session_options;
  session_options.default_deadline_ms = options_.default_deadline_ms;
  session_options.max_query_threads =
      options_.max_query_threads > 0 ? options_.max_query_threads : 1;
  session_options.thread_budget = &thread_budget_;
  session_options.feedback =
      options_.enable_feedback ? &feedback_store_ : nullptr;
  session_ = std::make_unique<QuerySession>(
      db_, options_.plan_cache_capacity > 0 ? &plan_cache_ : nullptr,
      &metrics_, session_options);
}

FroServer::~FroServer() { Stop(); }

Status FroServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Unavailable(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    const Status status =
        Unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&FroServer::AcceptLoop, this);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&FroServer::WorkerLoop, this);
  }
  return Status::Ok();
}

void FroServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept().
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  // Cancel whatever is executing so workers leave their drains promptly.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& [tag, control] : inflight_) control->RequestCancel();
  }
  // Unblock workers parked in ReadFrame on idle connections.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Close connections no worker ever claimed.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void FroServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;  // Stop() already closed the listener
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop(), or fatal
    }
    metrics_.RecordConnection();
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < static_cast<size_t>(options_.max_pending)) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Shed load at admission: one explanatory frame, then close.
      metrics_.RecordRejected();
      Response overload;
      overload.status = ResourceExhausted("server overloaded: admission "
                                          "queue full");
      WriteResponse(fd, overload);
      ::close(fd);
    }
  }
}

void FroServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               !running_.load(std::memory_order_acquire);
      });
      if (!running_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      open_conns_.insert(fd);
    }
    // Re-check after publishing the fd: a Stop() that raced ahead of the
    // insert has already walked open_conns_, so it relies on this check;
    // one that runs after it will find the fd and shut it down.
    if (running_.load(std::memory_order_acquire)) ServeConnection(fd);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      open_conns_.erase(fd);
    }
    ::close(fd);
  }
}

void FroServer::ServeConnection(int fd) {
  std::string payload;
  while (running_.load(std::memory_order_acquire)) {
    bool mid_frame_eof = false;
    Status read = ReadFrame(fd, &payload, &mid_frame_eof);
    if (!read.ok()) {
      // Clean close, mid-frame truncation, or an unframeable length: in
      // every case drop the connection. A torn frame (peer died between
      // a header and its payload, or inside either) counts as a framing
      // error; a length-limit violation additionally gets a best-effort
      // explanatory frame first.
      if (mid_frame_eof) {
        metrics_.RecordFrameError();
      } else if (read.code() == StatusCode::kInvalidArgument) {
        metrics_.RecordFrameError();
        Response err;
        err.status = read;
        WriteResponse(fd, err);
      }
      return;
    }
    Response response;
    Result<Request> request = ParseRequest(payload);
    if (!request.ok()) {
      // Malformed request payload: answer and keep the connection — the
      // framing is still intact.
      metrics_.RecordFrameError();
      response.status = request.status();
    } else {
      response = Dispatch(*request);
    }
    if (!WriteResponse(fd, response).ok()) return;
  }
}

Response FroServer::Dispatch(const Request& request) {
  Response response;
  switch (request.verb) {
    case Verb::kPing:
      response.body = "pong\n";
      return response;
    case Verb::kStats:
      response.body = StatsText();
      return response;
    case Verb::kCancel:
      if (CancelQuery(request.argument)) {
        response.body = "cancel requested for @" + request.argument + "\n";
      } else {
        response.status =
            NotFound("no running query tagged @" + request.argument);
      }
      return response;
    case Verb::kQuery:
    case Verb::kExplain:
    case Verb::kAnalyze: {
      // The control carries only cancellation here; the session arms the
      // deadline itself through RunOptions (the single place execution
      // options are set).
      ExecControl control;
      const bool cancellable =
          request.verb == Verb::kQuery && !request.tag.empty();
      if (cancellable) RegisterQuery(request.tag, &control);
      response = session_->Execute(request, &control);
      if (cancellable) UnregisterQuery(request.tag);
      return response;
    }
  }
  response.status = Internal("unhandled verb");
  return response;
}

void FroServer::RegisterQuery(const std::string& tag, ExecControl* control) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_[tag] = control;
}

void FroServer::UnregisterQuery(const std::string& tag) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(tag);
}

bool FroServer::CancelQuery(const std::string& tag) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_.find(tag);
  if (it == inflight_.end()) return false;
  it->second->RequestCancel();
  return true;
}

std::string FroServer::StatsText() const {
  std::string out = metrics_.ToText();
  out += "plan_cache " + plan_cache_.stats().ToString() + "\n";
  // Re-plan counts live in the plan-cache line (replans=/stale=); the
  // Describe payload adds the store rollup and its Q-error histogram.
  out += feedback_store_.Describe(/*top_n=*/0);
  out += "ast_memo hits=" + std::to_string(session_->ast_hits()) +
         " misses=" + std::to_string(session_->ast_misses()) + "\n";
  out += "exec_threads max_per_query=" +
         std::to_string(options_.max_query_threads > 0
                            ? options_.max_query_threads
                            : 1) +
         " budget=" + std::to_string(options_.exec_thread_budget) +
         " available=" + std::to_string(thread_budget_.available()) + "\n";
  return out;
}

}  // namespace fro
