// Multi-threaded batched forecast server: a bounded request queue feeds N
// worker threads, each owning its own InferenceSession (model replica).
// A worker wakeup drains up to `max_batch` queued requests in one lock
// acquisition (common/bounded_queue.h) and answers them with a single
// batched forward — the micro-batching coalescer that amortizes per-forward
// overhead (tape allocation, kernel launch, the parallel pool's job mutex)
// across requests.
//
// Determinism: which requests share a batch depends on arrival timing and
// is NOT deterministic — but each request's forecast is. The session layer
// guarantees a batched forward is bit-identical, row for row, to the
// sequential single-request forwards (see serve/inference_session.h), so
// batching and worker count never change any response bit. That contract is
// what makes the server safe to scale: tests sweep workers x max_batch and
// compare responses byte-for-byte.
//
// Integration: cancellation/deadline from common/cancellation.h (a
// cancelled token fails queued + new requests; per-request deadlines and
// window shapes are checked when a worker picks the request up, so an
// expired or malformed request never joins a batch), "serve/..." spans via
// the tracer, and serve metrics flushed into a driver-owned MetricsRegistry
// on Stop() (the registry is not thread-safe, so workers record into
// private counters that Stop() merges).
#ifndef AUTOCTS_SERVE_FORECAST_SERVER_H_
#define AUTOCTS_SERVE_FORECAST_SERVER_H_

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/metrics_registry.h"
#include "serve/inference_session.h"

namespace autocts::serve {

// Metric names recorded into ServeOptions::metrics on Stop(). The "wall/"
// prefix marks wall-clock-derived columns that comparison tooling strips
// (see common/metrics_registry.h).
inline constexpr char kMetricRequestsServed[] = "serve/requests_served";
inline constexpr char kMetricBatches[] = "serve/batches";
inline constexpr char kMetricRejected[] = "serve/rejected";
inline constexpr char kMetricExpired[] = "serve/expired";
inline constexpr char kMetricCancelled[] = "serve/cancelled";
inline constexpr char kMetricBatchFill[] = "serve/batch_fill";
inline constexpr char kMetricLatencyMs[] = "wall/serve/latency_ms";

// All three integer knobs must be >= 1; Start() validates them and
// returns InvalidArgument instead of accepting a zero/negative
// configuration (these arrive straight from CLI flags).
struct ServeOptions {
  int64_t workers = 1;
  // Max requests coalesced into one batched forward (>= 1).
  int64_t max_batch = 8;
  // Bounded queue capacity; TryPush back-pressure beyond this.
  int64_t queue_capacity = 256;
  // Optional cooperative shutdown: once cancelled, queued and newly
  // submitted requests fail with the token's status. Not owned.
  const CancellationToken* cancel = nullptr;
  // Optional driver-owned registry; serve counters/histograms are recorded
  // when Stop() returns. Not owned.
  obs::MetricsRegistry* metrics = nullptr;
};

class ForecastServer {
 public:
  // Builds one InferenceSession per worker from `artifact`.
  ForecastServer(const ModelArtifact& artifact, const ServeOptions& options);
  ~ForecastServer();  // calls Stop()
  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  // Validates the options (InvalidArgument on a non-positive knob) and
  // the artifact (session construction), then launches the worker
  // threads. Must be called exactly once before Submit.
  Status Start();

  // Graceful shutdown: rejects new submissions, serves every request
  // already accepted into the queue, joins the workers, then flushes
  // metrics. Idempotent.
  void Stop();

  // Enqueues a raw window [P, N, F]; the future resolves to the forecast
  // [Q, N] or to a non-OK status (queue full -> Unavailable immediately;
  // deadline expired before a worker picked it up -> DeadlineExceeded;
  // cancellation -> the token's status).
  std::future<StatusOr<Tensor>> Submit(
      Tensor window, Deadline deadline = Deadline::Infinite());

  // Convenience synchronous round trip: Submit + wait.
  StatusOr<Tensor> Predict(const Tensor& window,
                           Deadline deadline = Deadline::Infinite());

  struct Stats {
    int64_t requests_served = 0;
    int64_t batches = 0;        // batched forwards executed
    int64_t rejected = 0;       // queue-full / not-running submissions
    int64_t expired = 0;        // deadline fired before the forward
    int64_t cancelled = 0;      // failed via the cancellation token
    int64_t max_batch_observed = 0;
  };
  Stats stats() const;

  const ArtifactMeta& meta() const { return meta_; }
  int64_t workers() const { return static_cast<int64_t>(sessions_.size()); }

 private:
  struct Request {
    Tensor window;
    Deadline deadline;
    int64_t submit_nanos = 0;
    std::promise<StatusOr<Tensor>> promise;
  };
  // Latency samples a worker collected; merged into the registry by Stop().
  struct WorkerLog {
    std::vector<double> latencies_ms;
    std::vector<int64_t> batch_fills;
  };

  void WorkerLoop(int64_t worker_index);
  void FlushMetrics();

  ArtifactMeta meta_;
  ModelArtifact artifact_;
  ServeOptions options_;
  std::vector<std::unique_ptr<InferenceSession>> sessions_;
  std::unique_ptr<BoundedQueue<Request>> queue_;
  std::vector<std::thread> threads_;
  std::vector<WorkerLog> worker_logs_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> expired_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> max_batch_observed_{0};
};

}  // namespace autocts::serve

#endif  // AUTOCTS_SERVE_FORECAST_SERVER_H_
