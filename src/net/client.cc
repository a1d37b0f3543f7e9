#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/cancellation.h"
#include "net/wire_codec.h"

namespace autocts::net {
namespace {

bool SendAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t sent = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(sent);
  }
  return true;
}

// Reads exactly `size` bytes, bounded by `timeout`. On the local timeout
// the reply may still be in flight, leaving the stream desynchronized —
// the caller must drop the connection.
Status ReadExactTimed(int fd, char* data, size_t size,
                      const Deadline& timeout) {
  size_t done = 0;
  while (done < size) {
    if (!timeout.infinite()) {
      const double remaining = timeout.remaining_seconds();
      if (remaining <= 0.0) {
        return Status::DeadlineExceeded("request timed out");
      }
      pollfd pfd{fd, POLLIN, 0};
      const int timeout_ms = static_cast<int>(
          std::min(remaining * 1e3 + 1.0, 2.0e9));
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) {
        return Status::DeadlineExceeded("request timed out");
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("poll: ") +
                                   std::strerror(errno));
      }
    }
    const ssize_t got = ::recv(fd, data + done, size - done, 0);
    if (got == 0) {
      return Status::Unavailable("connection closed by server");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("recv: ") +
                                 std::strerror(errno));
    }
    done += static_cast<size_t>(got);
  }
  return Status::Ok();
}

}  // namespace

ForecastClient::ForecastClient(const ForecastClientOptions& options)
    : options_(options) {}

ForecastClient::~ForecastClient() { Disconnect(); }

Status ForecastClient::ConnectOnce() {
  Disconnect();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address \"" + options_.host +
                                   "\" (an IPv4 literal is required)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::Unavailable("connect " + options_.host + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::Ok();
}

Status ForecastClient::Connect() {
  if (connected()) return Status::Ok();
  return fault::RetryCall(options_.retry,
                          "connect " + options_.host + ":" +
                              std::to_string(options_.port),
                          [this] { return ConnectOnce(); })
      .status;
}

void ForecastClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Tensor> ForecastClient::RoundTrip(const std::string& request,
                                           bool* transport) {
  *transport = true;
  const Deadline timeout =
      Deadline::AfterBudget(options_.request_timeout_seconds);
  if (!SendAll(fd_, request.data(), request.size())) {
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  std::string reply(kFrameHeaderBytes, '\0');
  Status read = ReadExactTimed(fd_, reply.data(), reply.size(), timeout);
  StatusOr<size_t> frame_size = Status::Internal("unset");
  if (read.ok()) {
    frame_size = PeekFrameSize(reply.data(), reply.size());
    if (frame_size.ok()) {
      reply.resize(frame_size.value());
      read = ReadExactTimed(fd_, reply.data() + kFrameHeaderBytes,
                            frame_size.value() - kFrameHeaderBytes, timeout);
    } else {
      // A garbled reply: forecasts are idempotent, so the resilient move
      // is reconnect + resend (transport stays true).
      read = frame_size.status();
    }
  }
  if (!read.ok()) {
    if (read.code() == StatusCode::kDeadlineExceeded) {
      // The reply may still arrive later; the stream is desynchronized.
      // Drop the connection but do NOT retry — the server may already
      // have spent the forward on this request.
      Disconnect();
      *transport = false;
    }
    return read;
  }
  StatusOr<Frame> frame = DecodeFrame(reply);
  if (!frame.ok()) return frame.status();  // corrupt reply: retryable
  if (frame.value().type == FrameType::kStatus) {
    *transport = false;  // the server's own answer — return it verbatim
    return frame.value().status;
  }
  if (frame.value().type != FrameType::kPredictResponse) {
    return Status::Unavailable("unexpected frame type from the server");
  }
  return std::move(frame.value().forecast);
}

StatusOr<Tensor> ForecastClient::Predict(const Tensor& window,
                                         double deadline_seconds) {
  if (window.ndim() != 3) {
    return Status::InvalidArgument("predict window must be [P, N, F]");
  }
  int64_t budget_nanos = 0;
  if (deadline_seconds != 0.0) {
    budget_nanos = static_cast<int64_t>(deadline_seconds * 1e9);
    // Keep the sign even when the magnitude rounds away: 0 means "no
    // deadline" on the wire.
    if (budget_nanos == 0) budget_nanos = deadline_seconds > 0.0 ? 1 : -1;
  }
  const std::string request = EncodePredictRequest(window, budget_nanos);
  const int64_t attempts = std::max<int64_t>(1, options_.retry.max_attempts);
  Status last = Status::Unavailable("no attempt made");
  for (int64_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      fault::SleepForBackoff(fault::BackoffSeconds(attempt));
    }
    if (!connected()) {
      const Status connect = ConnectOnce();
      if (!connect.ok()) {
        last = connect;
        continue;
      }
    }
    bool transport = false;
    StatusOr<Tensor> result = RoundTrip(request, &transport);
    if (result.ok() || !transport) return result;
    last = result.status();
    Disconnect();  // reconnect on the next attempt
  }
  return last;
}

}  // namespace autocts::net
