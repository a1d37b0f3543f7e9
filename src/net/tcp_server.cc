#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "net/wire_codec.h"

namespace autocts::net {
namespace {

// listen(2) backlog.
constexpr int kListenBacklog = 64;

// Reads exactly `size` bytes. Returns the byte count actually read: `size`
// on success, 0 on a clean EOF before the first byte, a partial count on
// EOF mid-buffer, or -1 on a socket error.
ssize_t ReadExact(int fd, char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t got = ::recv(fd, data + done, size - done, 0);
    if (got == 0) return static_cast<ssize_t>(done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(got);
  }
  return static_cast<ssize_t>(done);
}

// Writes the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as
// EPIPE instead of killing the process.
bool WriteAll(int fd, const char* data, size_t size) {
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

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

TcpForecastServer::TcpForecastServer(const serve::ModelArtifact& artifact,
                                     const TcpServeOptions& options)
    : server_(artifact, options.serve), options_(options) {}

TcpForecastServer::~TcpForecastServer() { Stop(); }

Status TcpForecastServer::Start() {
  AUTOCTS_CHECK(!running_.load() && !stopping_.load())
      << "Start() must be called exactly once";
  const Status started = server_.Start();  // validates ServeOptions
  if (!started.ok()) return started;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    server_.Stop();
    return ErrnoStatus("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  Status failure = Status::Ok();
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    failure = Status::InvalidArgument("bad bind address \"" +
                                      options_.bind_address + "\"");
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
    failure = ErrnoStatus("bind " + options_.bind_address + ":" +
                          std::to_string(options_.port));
  } else if (::listen(listen_fd_, kListenBacklog) != 0) {
    failure = ErrnoStatus("listen");
  }
  if (!failure.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    server_.Stop();
    return failure;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  running_.store(true);
  listener_ = std::thread([this] { ListenLoop(); });
  return Status::Ok();
}

void TcpForecastServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second Stop() (e.g. the destructor after an explicit call) still
    // waits for nothing: the first call already joined everything.
    return;
  }
  if (running_.load()) {
    // Unblock accept(2); close the fd only after the listener exits so the
    // descriptor cannot be recycled under it.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (listener_.joinable()) listener_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;

    // Half-close every open connection: blocked reads return EOF and the
    // handlers wind down, but in-flight responses still get written — the
    // accepted work drains instead of being dropped.
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (auto& [id, connection] : connections_) {
        ::shutdown(connection.fd, SHUT_RD);
      }
    }
    while (true) {
      Connection connection;
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        if (connections_.empty()) break;
        auto it = connections_.begin();
        connection = Connection{it->second.fd,
                                std::move(it->second.thread)};
        connections_.erase(it);
      }
      if (connection.thread.joinable()) connection.thread.join();
      ::close(connection.fd);
    }
    finished_connections_.clear();
    running_.store(false);
  }
  // The inner server drains every request already accepted into its queue.
  server_.Stop();
}

void TcpForecastServer::ListenLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal); Stop() owns cleanup
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      const int64_t id = next_connection_id_++;
      Connection& connection = connections_[id];
      connection.fd = fd;
      connection.thread =
          std::thread([this, id, fd] { ConnectionLoop(id, fd); });
    }
    ReapFinishedConnections();
  }
}

void TcpForecastServer::ConnectionLoop(int64_t id, int fd) {
  while (true) {
    std::string frame_bytes(kFrameHeaderBytes, '\0');
    const ssize_t header_read =
        ReadExact(fd, frame_bytes.data(), kFrameHeaderBytes);
    if (header_read == 0) break;  // clean close between frames
    if (header_read != static_cast<ssize_t>(kFrameHeaderBytes)) {
      disconnects_mid_frame_.fetch_add(1);
      break;
    }
    const StatusOr<size_t> frame_size =
        PeekFrameSize(frame_bytes.data(), frame_bytes.size());
    if (!frame_size.ok()) {
      // The stream framing cannot be trusted after a bad header: report
      // the error and close.
      protocol_errors_.fetch_add(1);
      const std::string reply = EncodeStatusFrame(frame_size.status());
      if (WriteAll(fd, reply.data(), reply.size())) {
        error_frames_sent_.fetch_add(1);
      }
      break;
    }
    frame_bytes.resize(frame_size.value());
    const size_t remainder = frame_size.value() - kFrameHeaderBytes;
    if (remainder > 0 &&
        ReadExact(fd, frame_bytes.data() + kFrameHeaderBytes, remainder) !=
            static_cast<ssize_t>(remainder)) {
      disconnects_mid_frame_.fetch_add(1);
      break;
    }
    StatusOr<Frame> frame = DecodeFrame(frame_bytes);
    if (frame.ok() && frame.value().type != FrameType::kPredictRequest) {
      frame = Status::InvalidArgument(
          "the server only accepts predict request frames");
    }
    if (!frame.ok()) {
      protocol_errors_.fetch_add(1);
      const std::string reply = EncodeStatusFrame(frame.status());
      if (WriteAll(fd, reply.data(), reply.size())) {
        error_frames_sent_.fetch_add(1);
      }
      break;
    }
    requests_decoded_.fetch_add(1);

    // Arm the wire deadline against this host's clock the moment the
    // request is understood — from here on it is exactly an in-process
    // deadline (a non-positive budget is already expired).
    const int64_t budget = frame.value().deadline_budget_nanos;
    const Deadline deadline = budget == 0
                                  ? Deadline::Infinite()
                                  : Deadline::After(static_cast<double>(
                                                        budget) *
                                                    1e-9);
    StatusOr<Tensor> forecast =
        server_.Submit(std::move(frame.value().window), deadline).get();
    const std::string reply =
        forecast.ok() ? EncodePredictResponse(forecast.value())
                      : EncodeStatusFrame(forecast.status());
    if (!WriteAll(fd, reply.data(), reply.size())) break;
    if (forecast.ok()) {
      responses_sent_.fetch_add(1);
    } else {
      error_frames_sent_.fetch_add(1);
    }
  }
  // Tell the peer we are done NOW (FIN). The fd itself is closed later by
  // the reaper / Stop() after this thread is joined, so the descriptor
  // number cannot be recycled while anything may still touch it.
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(connections_mutex_);
  finished_connections_.push_back(id);
}

void TcpForecastServer::ReapFinishedConnections() {
  std::vector<Connection> done;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const int64_t id : finished_connections_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Stop() already took it
      done.push_back(
          Connection{it->second.fd, std::move(it->second.thread)});
      connections_.erase(it);
    }
    finished_connections_.clear();
  }
  for (Connection& connection : done) {
    if (connection.thread.joinable()) connection.thread.join();
    ::close(connection.fd);
  }
}

TcpForecastServer::Stats TcpForecastServer::stats() const {
  Stats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.requests_decoded = requests_decoded_.load();
  stats.responses_sent = responses_sent_.load();
  stats.error_frames_sent = error_frames_sent_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.disconnects_mid_frame = disconnects_mid_frame_.load();
  return stats;
}

}  // namespace autocts::net
