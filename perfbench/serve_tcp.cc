// serve_tcp: closed-loop clients against a loopback TcpForecastServer. The
// model is a METR-LA-scale artifact (N=12, P=Q=12, the first checked-in
// genotype: M=5, B=4, hidden 16) that set-up loads through
// LoadModelArtifact; the server runs 2 workers with micro-batches of up to
// 8. Each client sends its next request when the previous reply lands, so
// the client count caps batch fill and per-request overhead (wire codec,
// connection threads) dominates. Every forecast is checked byte for byte
// against an in-process InferenceSession::Predict of the same window.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/buffer_pool.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/eval_scheduler.h"
#include "core/evaluator.h"
#include "data/synthetic/generators.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire_codec.h"
#include "report.h"
#include "serve/forecast_server.h"
#include "workloads.h"

namespace autocts::perfbench {
namespace {

// METR-LA geometry of bench::MakePreset("metr-la"), with the workload seed.
constexpr int64_t kNodes = 12;
constexpr int64_t kTimestamps = 1440;
// Distinct request windows, cut from the held-out tail of the series.
constexpr int64_t kWindowPool = 64;
constexpr int64_t kSetupRepeats = 5;
constexpr int64_t kServeMaxBatch = 8;
constexpr int64_t kProbeRepeats = 50;

struct ServeInputs {
  std::string artifact_path;
  std::vector<Tensor> windows;     // raw [P, N, F]
  std::vector<Tensor> truths;      // raw target [Q, N]
  std::vector<Tensor> references;  // in-process Predict of each window
};

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

// Weighted absolute percentage error of the served forecasts: sum of
// |forecast - truth| over sum of |truth|, on observed (non-zero) truths.
struct ErrorSum {
  double abs_error = 0.0;
  double abs_truth = 0.0;

  void Add(const Tensor& forecast, const Tensor& truth) {
    for (int64_t i = 0; i < truth.size(); ++i) {
      if (truth.data()[i] == 0.0) continue;  // missing-reading sentinel
      abs_error += std::fabs(forecast.data()[i] - truth.data()[i]);
      abs_truth += std::fabs(truth.data()[i]);
    }
  }
  void Add(const ErrorSum& other) {
    abs_error += other.abs_error;
    abs_truth += other.abs_truth;
  }
  double Wape() const { return abs_truth > 0.0 ? abs_error / abs_truth : 0.0; }
};

double Millis(int64_t nanos) { return static_cast<double>(nanos) * 1e-6; }

// Input preparation, outside the timed set-up: trains the serving model
// briefly on the seeded series, saves it as an artifact, cuts the request
// windows and computes their in-process reference forecasts.
StatusOr<ServeInputs> MakeInputs(const RunConfig& config) {
  data::TrafficSpeedConfig speed;
  speed.name = "METR-LA (synthetic)";
  speed.num_nodes = kNodes;
  speed.num_steps = kTimestamps;
  speed.seed = config.seed;
  const data::CtsDataset dataset = data::GenerateTrafficSpeed(speed);
  data::WindowSpec window;
  window.input_length = 12;
  window.output_length = 12;
  const models::PreparedData prepared =
      models::PrepareData(dataset, window, 0.7, 0.1);

  StatusOr<std::vector<core::Genotype>> candidates =
      core::LoadCandidateSet(config.candidates_path);
  if (!candidates.ok()) return candidates.status();
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 16;
  train.max_batches_per_epoch = 4;
  train.seed = config.seed;
  const int64_t hidden = 16;
  StatusOr<core::TrainedGenotype> trained = core::TrainGenotypeWithStatus(
      candidates.value().front(), prepared, hidden, train);
  if (!trained.ok()) return trained.status();

  ServeInputs inputs;
  inputs.artifact_path = config.work_dir + "/model.artifact";
  const Status saved = serve::SaveModelArtifact(
      serve::MakeModelArtifact(*trained.value().model, prepared, hidden,
                               config.seed),
      inputs.artifact_path);
  if (!saved.ok()) return saved;

  const int64_t p = window.input_length;
  const int64_t q = window.output_length;
  const int64_t features = dataset.num_features();
  const int64_t first = kTimestamps * 4 / 5;
  const int64_t stride =
      std::max<int64_t>(1, (kTimestamps - first - p - q) / kWindowPool);
  for (int64_t w = 0; w < kWindowPool; ++w) {
    const int64_t start = first + w * stride;
    Tensor input({p, kNodes, features});
    Tensor truth({q, kNodes});
    for (int64_t t = 0; t < p; ++t) {
      for (int64_t n = 0; n < kNodes; ++n) {
        for (int64_t f = 0; f < features; ++f) {
          input.At({t, n, f}) = dataset.values.At({start + t, n, f});
        }
      }
    }
    for (int64_t t = 0; t < q; ++t) {
      for (int64_t n = 0; n < kNodes; ++n) {
        truth.At({t, n}) =
            dataset.values.At({start + p + t, n, dataset.target_feature});
      }
    }
    inputs.windows.push_back(std::move(input));
    inputs.truths.push_back(std::move(truth));
  }

  StatusOr<serve::ModelArtifact> loaded =
      serve::LoadModelArtifact(inputs.artifact_path);
  if (!loaded.ok()) return loaded.status();
  StatusOr<std::unique_ptr<serve::InferenceSession>> session =
      serve::InferenceSession::Create(loaded.value());
  if (!session.ok()) return session.status();
  for (const Tensor& input : inputs.windows) {
    StatusOr<Tensor> forecast = session.value()->Predict(input);
    if (!forecast.ok()) return forecast.status();
    inputs.references.push_back(std::move(forecast).value());
  }
  return inputs;
}

// A started server and its connected clients.
struct TcpStack {
  std::unique_ptr<net::TcpForecastServer> server;
  std::vector<std::unique_ptr<net::ForecastClient>> clients;
};

StatusOr<TcpStack> StartTcpStack(const serve::ModelArtifact& artifact,
                                 const Layout& layout,
                                 obs::MetricsRegistry* metrics) {
  TcpStack stack;
  net::TcpServeOptions options;
  options.serve.workers = layout.server_workers;
  options.serve.max_batch = kServeMaxBatch;
  options.serve.metrics = metrics;
  options.port = 0;  // ephemeral loopback port
  stack.server = std::make_unique<net::TcpForecastServer>(artifact, options);
  const Status started = stack.server->Start();
  if (!started.ok()) return started;
  for (int64_t c = 0; c < layout.clients; ++c) {
    net::ForecastClientOptions client_options;
    client_options.port = stack.server->port();
    auto client = std::make_unique<net::ForecastClient>(client_options);
    const Status connected = client->Connect();
    if (!connected.ok()) return connected;
    stack.clients.push_back(std::move(client));
  }
  return stack;
}

// Set-up as a user pays it: load the artifact, start the server (one model
// replica per worker), connect the clients. Repeated for a steady median;
// the last stack is the one measured. `registry` is attached only to it.
StatusOr<TcpStack> TimedSetUp(const ServeInputs& inputs, const Layout& layout,
                              obs::MetricsRegistry* registry, Measurement* m) {
  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  StatusOr<TcpStack> stack = Status::Internal("not set up");
  for (int64_t i = 0; i < kSetupRepeats; ++i) {
    if (stack.ok()) stack.value().server->Stop();
    Stopwatch timer;
    StatusOr<serve::ModelArtifact> artifact =
        serve::LoadModelArtifact(inputs.artifact_path);
    load_seconds.push_back(timer.Seconds());
    if (!artifact.ok()) return artifact.status();
    stack = StartTcpStack(artifact.value(), layout,
                          i + 1 == kSetupRepeats ? registry : nullptr);
    setup_seconds.push_back(timer.Seconds());
    if (!stack.ok()) return stack.status();
  }
  m->metrics["setup_s"] = Median(setup_seconds);
  m->metrics["artifact.load_s"] = Median(load_seconds);
  return stack;
}

// serve.* metrics from ForecastServer::stats() and the registry the server
// flushed on Stop(). Call after AddTraceMetrics so the queue wait can
// subtract the traced forward time.
void AddServeMetrics(const serve::ForecastServer::Stats& stats,
                     obs::MetricsRegistry* registry, MetricMap* out) {
  (*out)["serve.batches"] = static_cast<double>(stats.batches);
  (*out)["serve.batch_fill_mean"] =
      stats.batches > 0 ? static_cast<double>(stats.requests_served) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  (*out)["serve.max_batch_observed"] =
      static_cast<double>(stats.max_batch_observed);
  (*out)["serve.rejected"] = static_cast<double>(stats.rejected);
  (*out)["serve.expired"] = static_cast<double>(stats.expired);
  const obs::Histogram* latency =
      registry->GetHistogram(serve::kMetricLatencyMs, {});
  const double p50 = HistogramPercentile(*latency, 50.0);
  const double p99 = HistogramPercentile(*latency, 99.0);
  (*out)["serve.server_latency_ms.p50"] = p50;
  (*out)["serve.server_latency_ms.p99"] = p99;
  const double forward = (*out)["serve.forward_ms_per_batch"];
  (*out)["serve.queue_wait_ms.p99"] =
      forward > 0.0 ? std::max(0.0, p99 - forward) : 0.0;
}

// session.* probes: Predict and PredictBatch called directly on a fresh
// session, outside any load.
void AddSessionProbes(const ServeInputs& inputs, Measurement* m) {
  StatusOr<serve::ModelArtifact> artifact =
      serve::LoadModelArtifact(inputs.artifact_path);
  if (!artifact.ok()) {
    m->Fail("session probe: " + artifact.status().ToString());
    return;
  }
  StatusOr<std::unique_ptr<serve::InferenceSession>> session =
      serve::InferenceSession::Create(artifact.value());
  if (!session.ok()) {
    m->Fail("session probe: " + session.status().ToString());
    return;
  }
  const Tensor& one = inputs.windows.front();
  const int64_t rows = kServeMaxBatch;
  Tensor batch({rows, one.dim(0), one.dim(1), one.dim(2)});
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(batch.data() + r * one.size(), inputs.windows[r].data(),
                static_cast<size_t>(one.size()) * sizeof(double));
  }
  std::vector<double> single_ms;
  std::vector<double> batch_ms;
  for (int64_t i = 0; i < kProbeRepeats; ++i) {
    Stopwatch single;
    StatusOr<Tensor> forecast = session.value()->Predict(one);
    single_ms.push_back(single.Millis());
    Stopwatch batched;
    StatusOr<Tensor> forecasts = session.value()->PredictBatch(batch);
    batch_ms.push_back(batched.Millis());
    if (!forecast.ok() || !forecasts.ok() ||
        !SameBytes(forecast.value(), inputs.references.front())) {
      m->Fail("session probe: forecast differs from the reference");
      return;
    }
  }
  m->metrics["session.predict_ms.b1"] = Median(single_ms);
  m->metrics["session.predict_ms_per_row.b8"] =
      Median(batch_ms) / static_cast<double>(rows);
}

}  // namespace

Measurement RunServeTcp(const RunConfig& config, bool traced) {
  const Layout& layout = config.layout;
  SetNumThreads(layout.tensor_threads);
  Measurement m;
  StatusOr<ServeInputs> inputs_or = MakeInputs(config);
  if (!inputs_or.ok()) {
    m.attempted = 1;
    m.Fail("inputs: " + inputs_or.status().ToString());
    return m;
  }
  const ServeInputs& inputs = inputs_or.value();
  // peak_rss_mb covers the serving stack, not the input preparation's
  // training: hand the training's parked buffers and freed heap back to
  // the system, then restart the peak mark from the current resident set.
  BufferPool::Global().Trim();
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak RSS mark; peak_rss_mb "
                 "includes the input preparation\n");
  }
  obs::MetricsRegistry registry;
  StatusOr<TcpStack> stack = TimedSetUp(inputs, layout, &registry, &m);
  if (!stack.ok()) {
    m.attempted = 1;
    m.Fail("setup: " + stack.status().ToString());
    return m;
  }
  net::TcpForecastServer& server = *stack.value().server;

  struct ClientLog {
    std::vector<double> latencies_ms;
    std::vector<int64_t> done_ns;  // completion time of each success
    int64_t attempted = 0;
    std::vector<std::string> errors;
    ErrorSum error;
  };
  const int64_t clients = layout.clients;
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  if (traced) trace::Start();
  const LayerSnapshot before = LayerSnapshot::Take();
  const int64_t start_ns = SteadyNowNanos();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(config.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::ForecastClient& client = *stack.value().clients[c];
        ClientLog& log = logs[static_cast<size_t>(c)];
        for (int64_t k = 0; SteadyNowNanos() < end_ns; ++k) {
          const size_t w = static_cast<size_t>((c + k * clients) % kWindowPool);
          const int64_t start = SteadyNowNanos();
          StatusOr<Tensor> forecast = Status::Internal("not sent");
          {
            trace::Scope span("bench/request");
            forecast = client.Predict(inputs.windows[w]);
          }
          const int64_t done = SteadyNowNanos();
          log.latencies_ms.push_back(Millis(done - start));
          ++log.attempted;
          if (!forecast.ok()) {
            log.errors.push_back("request: " + forecast.status().ToString());
          } else if (!SameBytes(forecast.value(), inputs.references[w])) {
            log.errors.push_back("window " + std::to_string(w) +
                                 ": forecast differs from in-process Predict");
          } else {
            log.done_ns.push_back(done);
            log.error.Add(forecast.value(), inputs.truths[w]);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const LayerSnapshot after = LayerSnapshot::Take();
  server.Stop();
  if (traced) trace::Stop();

  // Completions per one-second slice; the median over whole slices keeps a
  // short stall of the host from moving the run's throughput.
  const int64_t slices = static_cast<int64_t>(config.seconds);
  std::vector<double> per_slice(
      static_cast<size_t>(std::max<int64_t>(slices, 1)), 0.0);
  std::vector<double> latencies_ms;
  ErrorSum error;
  for (const ClientLog& log : logs) {
    latencies_ms.insert(latencies_ms.end(), log.latencies_ms.begin(),
                        log.latencies_ms.end());
    m.attempted += log.attempted;
    for (const std::string& message : log.errors) m.Fail(message);
    error.Add(log.error);
    for (const int64_t done : log.done_ns) {
      const int64_t slice = (done - start_ns) / 1'000'000'000;
      if (slice < static_cast<int64_t>(per_slice.size())) {
        per_slice[static_cast<size_t>(slice)] += 1.0;
      }
    }
  }

  if (traced) AddTraceMetrics(&m.metrics);
  AddCounterDeltas(before, after, &m.metrics);
  AddServeMetrics(server.forecast_server().stats(), &registry, &m.metrics);
  const net::TcpForecastServer::Stats net_stats = server.stats();
  m.metrics["net.connections"] =
      static_cast<double>(net_stats.connections_accepted);
  m.metrics["net.requests_decoded"] =
      static_cast<double>(net_stats.requests_decoded);
  m.metrics["net.error_frames"] =
      static_cast<double>(net_stats.error_frames_sent);
  m.metrics["net.protocol_errors"] =
      static_cast<double>(net_stats.protocol_errors);
  if (net_stats.protocol_errors != 0 || net_stats.error_frames_sent != 0) {
    m.Fail("server reported protocol errors or error frames");
  }

  m.metrics["throughput_per_s"] = Median(per_slice);
  m.metrics["qps"] = m.metrics["throughput_per_s"];
  const Tail tail = TailPercentile(latencies_ms);
  m.metrics["latency_p50_ms"] = Median(latencies_ms);
  m.metrics["latency_p99_ms"] = tail.value;
  m.metrics["latency_p99_ms.count"] = static_cast<double>(tail.count);
  // What the wire and the connection threads add to each round trip. The
  // server's latency histogram keeps an exact sum, so means subtract
  // exactly where its bucketed percentiles could not.
  const obs::Histogram* server_latency =
      registry.GetHistogram(serve::kMetricLatencyMs, {});
  double client_sum_ms = 0.0;
  for (const double ms : latencies_ms) client_sum_ms += ms;
  m.metrics["net.overhead_ms.mean"] =
      latencies_ms.empty() || server_latency->count() == 0
          ? 0.0
          : client_sum_ms / static_cast<double>(latencies_ms.size()) -
                server_latency->sum() /
                    static_cast<double>(server_latency->count());
  m.metrics["forecast_wape"] = error.Wape();

  // The codec timed on this workload's own frames.
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (int64_t i = 0; i < kProbeRepeats * 4; ++i) {
    const size_t w = static_cast<size_t>(i % kWindowPool);
    Stopwatch encode;
    const std::string request = net::EncodePredictRequest(inputs.windows[w]);
    encode_us.push_back(encode.Millis() * 1e3);
    const std::string response =
        net::EncodePredictResponse(inputs.references[w]);
    Stopwatch decode;
    StatusOr<net::Frame> frame = net::DecodeFrame(response);
    decode_us.push_back(decode.Millis() * 1e3);
    if (request.empty() || !frame.ok() ||
        !SameBytes(frame.value().forecast, inputs.references[w])) {
      m.Fail("wire codec round trip differs");
      break;
    }
  }
  m.metrics["wire.encode_request_us"] = Median(encode_us);
  m.metrics["wire.decode_response_us"] = Median(decode_us);
  AddSessionProbes(inputs, &m);
  m.metrics["peak_rss_mb"] = PeakRssMb();
  return m;
}

}  // namespace autocts::perfbench
