#include "serve/forecast_server.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "common/trace.h"

namespace autocts::serve {

ForecastServer::ForecastServer(const ModelArtifact& artifact,
                               const ServeOptions& options)
    : meta_(artifact.meta), artifact_(artifact), options_(options) {}

ForecastServer::~ForecastServer() { Stop(); }

namespace {

// ServeOptions come straight from CLI flags and remote configs, so a bad
// knob is a recoverable input error (typed Status at Start), not a
// programming error (CHECK).
Status ValidateServeOptions(const ServeOptions& options) {
  const std::pair<int64_t, const char*> knobs[] = {
      {options.workers, "workers"},
      {options.max_batch, "max_batch"},
      {options.queue_capacity, "queue_capacity"},
  };
  for (const auto& [value, name] : knobs) {
    if (value < 1) {
      return Status::InvalidArgument(
          std::string("ServeOptions.") + name + " must be >= 1, got " +
          std::to_string(value));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ForecastServer::Start() {
  AUTOCTS_CHECK(!running_.load() && !stopped_.load())
      << "Start() must be called exactly once";
  const Status options_ok = ValidateServeOptions(options_);
  if (!options_ok.ok()) return options_ok;
  sessions_.reserve(options_.workers);
  for (int64_t i = 0; i < options_.workers; ++i) {
    StatusOr<std::unique_ptr<InferenceSession>> session =
        InferenceSession::Create(artifact_);
    if (!session.ok()) {
      sessions_.clear();
      return session.status();
    }
    sessions_.push_back(std::move(session).value());
  }
  queue_ = std::make_unique<BoundedQueue<Request>>(
      static_cast<size_t>(options_.queue_capacity));
  worker_logs_.resize(options_.workers);
  running_.store(true);
  threads_.reserve(options_.workers);
  for (int64_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::Ok();
}

void ForecastServer::Stop() {
  if (!running_.load() || stopped_.exchange(true)) return;
  queue_->Close();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  running_.store(false);
  FlushMetrics();
}

std::future<StatusOr<Tensor>> ForecastServer::Submit(Tensor window,
                                                     Deadline deadline) {
  Request request;
  request.window = std::move(window);
  request.deadline = deadline;
  request.submit_nanos = SteadyNowNanos();
  std::future<StatusOr<Tensor>> future = request.promise.get_future();
  if (!running_.load() || stopped_.load()) {
    rejected_.fetch_add(1);
    request.promise.set_value(Status::Unavailable("server not running"));
    return future;
  }
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    cancelled_.fetch_add(1);
    request.promise.set_value(
        options_.cancel->ToStatus("forecast request rejected"));
    return future;
  }
  if (!queue_->TryPush(request)) {
    rejected_.fetch_add(1);
    request.promise.set_value(
        Status::Unavailable("request queue full or closed"));
  }
  return future;
}

StatusOr<Tensor> ForecastServer::Predict(const Tensor& window,
                                         Deadline deadline) {
  return Submit(window.Clone(), deadline).get();
}

void ForecastServer::WorkerLoop(int64_t worker_index) {
  InferenceSession* session = sessions_[worker_index].get();
  WorkerLog* log = &worker_logs_[worker_index];
  std::vector<Request> batch;
  while (true) {
    batch.clear();
    const size_t popped = queue_->PopBatch(
        static_cast<size_t>(options_.max_batch), &batch);
    if (popped == 0) return;  // closed and drained
    AUTOCTS_TRACE_SCOPE("serve/batch");

    // Fail fast on cancellation; answer expired and malformed requests
    // without running the model for them, so one bad window cannot fail
    // its batch mates.
    std::vector<Request*> live;
    live.reserve(batch.size());
    for (Request& request : batch) {
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        cancelled_.fetch_add(1);
        request.promise.set_value(
            options_.cancel->ToStatus("forecast request dropped"));
      } else if (request.deadline.expired()) {
        expired_.fetch_add(1);
        request.promise.set_value(Status::DeadlineExceeded(
            "request deadline expired before the forward"));
      } else if (Status shape = session->CheckWindow(request.window);
                 !shape.ok()) {
        request.promise.set_value(std::move(shape));
      } else {
        live.push_back(&request);
      }
    }
    if (live.empty()) continue;

    const int64_t k = static_cast<int64_t>(live.size());
    Tensor windows = Tensor::Uninitialized({k, meta_.input_length,
                                            meta_.num_nodes,
                                            meta_.in_features});
    const int64_t window_size =
        meta_.input_length * meta_.num_nodes * meta_.in_features;
    for (int64_t i = 0; i < k; ++i) {
      std::copy(live[i]->window.data(), live[i]->window.data() + window_size,
                windows.data() + i * window_size);
    }
    const StatusOr<Tensor> forecasts = session->PredictBatch(windows);

    batches_.fetch_add(1);
    log->batch_fills.push_back(k);
    int64_t observed = max_batch_observed_.load();
    while (k > observed &&
           !max_batch_observed_.compare_exchange_weak(observed, k)) {
    }
    const int64_t forecast_size = meta_.output_length * meta_.num_nodes;
    for (int64_t i = 0; i < k; ++i) {
      AUTOCTS_TRACE_SCOPE("serve/request");
      if (!forecasts.ok()) {
        live[i]->promise.set_value(forecasts.status());
        continue;
      }
      Tensor response =
          Tensor::Uninitialized({meta_.output_length, meta_.num_nodes});
      std::copy(forecasts.value().data() + i * forecast_size,
                forecasts.value().data() + (i + 1) * forecast_size,
                response.data());
      requests_served_.fetch_add(1);
      log->latencies_ms.push_back(
          static_cast<double>(SteadyNowNanos() - live[i]->submit_nanos) *
          1e-6);
      live[i]->promise.set_value(std::move(response));
    }
  }
}

void ForecastServer::FlushMetrics() {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry* metrics = options_.metrics;
  metrics->GetCounter(kMetricRequestsServed)->Set(requests_served_.load());
  metrics->GetCounter(kMetricBatches)->Set(batches_.load());
  metrics->GetCounter(kMetricRejected)->Set(rejected_.load());
  metrics->GetCounter(kMetricExpired)->Set(expired_.load());
  metrics->GetCounter(kMetricCancelled)->Set(cancelled_.load());
  obs::Histogram* fill = metrics->GetHistogram(
      kMetricBatchFill, {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  obs::Histogram* latency = metrics->GetHistogram(
      kMetricLatencyMs, {1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
  for (const WorkerLog& log : worker_logs_) {
    for (int64_t f : log.batch_fills) fill->Observe(static_cast<double>(f));
    for (double ms : log.latencies_ms) latency->Observe(ms);
  }
}

ForecastServer::Stats ForecastServer::stats() const {
  Stats stats;
  stats.requests_served = requests_served_.load();
  stats.batches = batches_.load();
  stats.rejected = rejected_.load();
  stats.expired = expired_.load();
  stats.cancelled = cancelled_.load();
  stats.max_batch_observed = max_batch_observed_.load();
  return stats;
}

}  // namespace autocts::serve
