// TCP front-end for the forecast server: a listener thread accepts
// loopback/LAN connections, a per-connection handler decodes wire frames
// (net/wire_codec.h) and bridges them into the ForecastServer's
// micro-batching queue (serve/forecast_server.h).
//
// Request lifecycle on one connection (requests are served in order; a
// client pipelines by opening several connections):
//   read frame -> decode (corrupt frame: reply kInvalidArgument status and
//   close — the stream framing cannot be trusted after damage) -> arm the
//   wire deadline (Deadline::After of the carried budget, so a wire
//   deadline behaves exactly like an in-process one) -> Submit into the
//   ForecastServer (a rejected Submit becomes a kUnavailable status frame:
//   load shedding crosses the wire unchanged) -> wait for the forecast ->
//   write the response (or the typed status) frame.
//
// Graceful Stop(): stop accepting, close the listener, shut down the read
// side of every open connection (in-flight requests still get their
// responses written), join the connection handlers, then stop the inner
// ForecastServer — which itself drains every request already accepted into
// the queue. The cancellation token in ServeOptions works as in-process:
// once cancelled, queued and new requests fail with the token's status,
// which the wire carries back as a typed frame.
//
// Determinism: the transport moves IEEE-754 bit images, so a forecast
// fetched through this server is byte-identical to the in-process
// InferenceSession::PredictBatch result at any workers x max_batch
// combination (tests/net_test.cc sweeps this).
#ifndef AUTOCTS_NET_TCP_SERVER_H_
#define AUTOCTS_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/forecast_server.h"

namespace autocts::net {

struct TcpServeOptions {
  // Inner micro-batching server configuration (workers, max_batch,
  // queue_capacity, cancellation token, metrics). Validated by Start().
  serve::ServeOptions serve;
  // TCP port to listen on; 0 picks an ephemeral port (read it back via
  // port() after Start()).
  int port = 0;
  // Bind address. The default only accepts loopback connections; use
  // "0.0.0.0" to serve a network.
  std::string bind_address = "127.0.0.1";
};

class TcpForecastServer {
 public:
  TcpForecastServer(const serve::ModelArtifact& artifact,
                    const TcpServeOptions& options);
  ~TcpForecastServer();  // calls Stop()
  TcpForecastServer(const TcpForecastServer&) = delete;
  TcpForecastServer& operator=(const TcpForecastServer&) = delete;

  // Validates the options (InvalidArgument on a non-positive worker /
  // batch / queue knob, Internal on a socket failure such as a busy port),
  // starts the inner ForecastServer, binds + listens, and launches the
  // listener thread. Must be called exactly once before connections land.
  Status Start();

  // Graceful shutdown as documented above. Idempotent.
  void Stop();

  // The bound port (the chosen ephemeral port when options.port == 0).
  int port() const { return port_; }

  // The inner micro-batching server (tests stop it directly to exercise
  // the load-shed frame path deterministically).
  serve::ForecastServer& forecast_server() { return server_; }

  struct Stats {
    int64_t connections_accepted = 0;
    int64_t requests_decoded = 0;     // well-formed request frames
    int64_t responses_sent = 0;       // PredictResponse frames written
    int64_t error_frames_sent = 0;    // Status frames written
    int64_t protocol_errors = 0;      // corrupt/malformed/unexpected frames
    int64_t disconnects_mid_frame = 0;  // client vanished inside a frame
  };
  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void ListenLoop();
  void ConnectionLoop(int64_t id, int fd);
  // Joins finished connection threads (called from the listener between
  // accepts and from Stop(), so the map stays bounded by the number of
  // concurrently open connections).
  void ReapFinishedConnections();

  serve::ForecastServer server_;
  TcpServeOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex connections_mutex_;
  std::map<int64_t, Connection> connections_;
  std::vector<int64_t> finished_connections_;
  int64_t next_connection_id_ = 0;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> requests_decoded_{0};
  std::atomic<int64_t> responses_sent_{0};
  std::atomic<int64_t> error_frames_sent_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> disconnects_mid_frame_{0};
};

}  // namespace autocts::net

#endif  // AUTOCTS_NET_TCP_SERVER_H_
