// Blocking forecast client for the TCP wire protocol: connects to a
// TcpForecastServer, round-trips PredictRequest/PredictResponse frames,
// and rebuilds typed server errors as the exact Status the server produced.
//
// Resilience (PR 7 machinery, common/fault.h):
//   * Connect() runs under the configured RetryPolicy — bounded attempts
//     with deterministic exponential backoff — so a client started before
//     its server wins the race instead of failing.
//   * Predict() retries TRANSPORT failures (connection refused/broken
//     before a complete reply arrived) under the same policy, reconnecting
//     between attempts. Typed status frames from the server — load shed
//     (kUnavailable), expired deadline, cancellation, bad request — are
//     application answers, not transport failures: they are returned
//     verbatim, never retried, so callers observe exactly the status the
//     server decided on.
//   * A per-request timeout (ClientOptions.request_timeout_seconds) bounds
//     the wait for the reply bytes; on expiry Predict returns
//     kDeadlineExceeded without retrying (the request may have been
//     served — retrying would double-spend server work).
//
// The deadline passed to Predict() travels on the wire as a relative
// budget and is armed server-side on arrival, so it shows the same
// semantics as an in-process ForecastServer::Submit deadline.
//
// Clients are not thread-safe: one connection serves one request at a
// time. Open one client per concurrent stream, as the load generator in
// perfbench/serve_tcp.cc does.
#ifndef AUTOCTS_NET_CLIENT_H_
#define AUTOCTS_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/fault.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace autocts::net {

struct ForecastClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  // Connect + transport-failure retry schedule (attempts include the
  // first; see common/fault.h).
  fault::RetryPolicy retry;
  // Wall-clock bound on one request round trip; 0 = wait forever.
  double request_timeout_seconds = 0.0;
};

class ForecastClient {
 public:
  explicit ForecastClient(const ForecastClientOptions& options);
  ~ForecastClient();
  ForecastClient(const ForecastClient&) = delete;
  ForecastClient& operator=(const ForecastClient&) = delete;

  // Establishes the connection under the retry policy. Predict() calls
  // this lazily, so calling it up front is optional (but surfaces
  // connectivity errors early).
  Status Connect();
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  // Blocking forecast round trip for a raw window [P, N, F].
  // `deadline_seconds` is the server-side budget: 0 = none, negative =
  // already expired on arrival (a deterministic test seam, mirroring
  // Deadline::After(-1)), positive = seconds from server receipt.
  StatusOr<Tensor> Predict(const Tensor& window,
                           double deadline_seconds = 0.0);

  const ForecastClientOptions& options() const { return options_; }

 private:
  Status ConnectOnce();
  // One request/reply exchange on the live connection. A non-OK return
  // with transport == true means the connection died (retryable); with
  // transport == false it is the server's own answer (returned verbatim).
  StatusOr<Tensor> RoundTrip(const std::string& request, bool* transport);

  ForecastClientOptions options_;
  int fd_ = -1;
};

}  // namespace autocts::net

#endif  // AUTOCTS_NET_CLIENT_H_
