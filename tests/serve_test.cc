// Suite for the forecast-serving engine (src/serve/):
//   * artifact codec round trips byte-for-byte and rejects spot corruption
//     of a full trained artifact (the exhaustive byte sweep over the compact
//     artifact lives in sealed_format_test), and a corrupt newest
//     generation falls back to "<path>.prev";
//   * the serving determinism contract — PredictBatch is bit-identical,
//     row for row, to sequential Predicts, the ForecastServer reproduces
//     the same bits at 1/2/4 workers under micro-batching, and repeated
//     identical predicts return identical bits (no RNG in inference);
//   * export -> load -> serve fidelity including BatchNorm running
//     statistics (non-trainable buffers) restored from the state dict;
//   * a session allocates nothing sized by the artifact's window length;
//   * a malformed window fails alone, without failing its server batch;
//   * queue back-pressure, deadline expiry, cancellation, and graceful
//     shutdown semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/file_io.h"
#include "common/metrics_registry.h"
#include "serve/forecast_server.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

using fixtures::CompactArtifact;
using fixtures::ExpectBitsEqual;
using fixtures::RawWindows;
using fixtures::TrainedServingModel;
using serve::ArtifactMeta;
using serve::ForecastServer;
using serve::InferenceSession;
using serve::ModelArtifact;
using serve::ServeOptions;

std::unique_ptr<InferenceSession> MakeSession() {
  StatusOr<std::unique_ptr<InferenceSession>> session =
      InferenceSession::Create(TrainedServingModel().artifact);
  AUTOCTS_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

std::string TempPath(const std::string& name) {
  return fixtures::TempPath("serve_test", name);
}

// ---------------------------------------------------------------------------
// Artifact codec.
// ---------------------------------------------------------------------------

TEST(ModelArtifact, EncodeDecodeRoundTripIsByteExact) {
  const ModelArtifact& artifact = TrainedServingModel().artifact;
  const std::string text = serve::EncodeModelArtifact(artifact);
  StatusOr<ModelArtifact> decoded = serve::DecodeModelArtifact(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(serve::EncodeModelArtifact(decoded.value()), text);
  EXPECT_EQ(decoded.value().meta.num_nodes, artifact.meta.num_nodes);
  EXPECT_EQ(decoded.value().meta.seed, artifact.meta.seed);
  const auto state_text = [](const nn::StateDict& state) {
    TextWriter writer;
    nn::AppendStateDict(state, "", &writer);
    return writer.Release();
  };
  EXPECT_EQ(state_text(decoded.value().state), state_text(artifact.state));
  EXPECT_EQ(decoded.value().genotype.ToText(), artifact.genotype.ToText());
}

TEST(ModelArtifact, StateDictCarriesBatchNormBuffers) {
  // The derived model wraps ops in BatchNorm, so a faithful artifact must
  // carry its running statistics as "buffer = " records.
  const ModelArtifact& artifact = TrainedServingModel().artifact;
  std::string buffers;
  for (const auto& [name, value] : artifact.state.buffers) buffers += name;
  EXPECT_NE(buffers.find("running_mean"), std::string::npos);
  EXPECT_NE(buffers.find("running_var"), std::string::npos);
  EXPECT_NE(serve::EncodeModelArtifact(artifact).find("state = buffer = "),
            std::string::npos);
}

TEST(ModelArtifact, RebuiltModelMatchesOriginalBitForBit) {
  const fixtures::ServingModel& fixture = TrainedServingModel();
  StatusOr<std::unique_ptr<core::DerivedModel>> rebuilt =
      serve::BuildModelFromArtifact(fixture.artifact);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_FALSE(rebuilt.value()->training());

  const auto original_params = fixture.model->NamedParameters();
  const auto rebuilt_params = rebuilt.value()->NamedParameters();
  ASSERT_EQ(original_params.size(), rebuilt_params.size());
  for (size_t i = 0; i < original_params.size(); ++i) {
    ASSERT_EQ(original_params[i].first, rebuilt_params[i].first);
    ExpectBitsEqual(original_params[i].second.value(),
                    rebuilt_params[i].second.value(),
                    "param " + original_params[i].first);
  }
  const auto original_buffers = fixture.model->NamedBuffers();
  const auto rebuilt_buffers = rebuilt.value()->NamedBuffers();
  ASSERT_EQ(original_buffers.size(), rebuilt_buffers.size());
  ASSERT_FALSE(original_buffers.empty());
  for (size_t i = 0; i < original_buffers.size(); ++i) {
    ASSERT_EQ(original_buffers[i].first, rebuilt_buffers[i].first);
    ExpectBitsEqual(*original_buffers[i].second, *rebuilt_buffers[i].second,
                    "buffer " + original_buffers[i].first);
  }
}

// Every geometry field the model is sized from must match the state
// dict's shapes (or, for num_nodes, the adjacency), and the decoder itself
// checks it: every artifact that decodes can be built. The state lines
// must be state-dict records.
TEST(ModelArtifact, GeometryThatDisagreesWithTheStateDictIsRejectedAtDecode) {
  const std::pair<const char*, void (*)(ModelArtifact*)> edits[] = {
      {"num_nodes", [](ModelArtifact* a) { ++a->meta.num_nodes; }},
      {"in_features", [](ModelArtifact* a) { ++a->meta.in_features; }},
      {"hidden_dim", [](ModelArtifact* a) { ++a->meta.hidden_dim; }},
      {"output_length", [](ModelArtifact* a) { ++a->meta.output_length; }},
      {"learned graph", [](ModelArtifact* a) { a->adjacency = Tensor(); }},
  };
  for (const auto& [field, edit] : edits) {
    ModelArtifact artifact = TrainedServingModel().artifact;
    edit(&artifact);
    EXPECT_EQ(serve::DecodeModelArtifact(serve::EncodeModelArtifact(artifact))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << field;
  }
  StatusOr<std::string> payload = UnsealText(
      serve::EncodeModelArtifact(TrainedServingModel().artifact));
  ASSERT_TRUE(payload.ok());
  // A state line that is not a param or buffer record.
  std::string foreign = payload.value();
  const std::string param = "\nstate = param = ";
  foreign.replace(foreign.find(param), param.size(), "\nstate = format = ");
  EXPECT_EQ(serve::DecodeModelArtifact(SealText(foreign)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelArtifact, TrainedArtifactRejectsSpotCorruptions) {
  // The exhaustive sweep runs on the compact artifact (sealed_format_test);
  // the full trained artifact gets targeted damage at both ends and in the
  // dense payload.
  const std::string text = serve::EncodeModelArtifact(TrainedServingModel().artifact);
  ASSERT_TRUE(serve::DecodeModelArtifact(text).ok());
  for (size_t i : {size_t{0}, text.size() / 3, text.size() / 2,
                   2 * text.size() / 3, text.size() - 2}) {
    std::string corrupt = text;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_FALSE(serve::DecodeModelArtifact(corrupt).ok())
        << "flip at " << i << " decoded";
  }
  EXPECT_FALSE(
      serve::DecodeModelArtifact(text.substr(0, text.size() / 2)).ok());
}

TEST(ModelArtifact, LoadFallsBackToPreviousGeneration) {
  const std::string path = TempPath("fallback.artifact");
  fixtures::RemoveGenerations(path);

  ModelArtifact first = CompactArtifact();
  ModelArtifact second = CompactArtifact();
  second.meta.seed = 18;
  ASSERT_TRUE(serve::SaveModelArtifact(first, path).ok());
  ASSERT_TRUE(serve::SaveModelArtifact(second, path).ok());

  // Intact newest generation wins.
  bool used_prev = true;
  StatusOr<ModelArtifact> loaded =
      serve::LoadModelArtifactOrPrev(path, &used_prev);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(used_prev);
  EXPECT_EQ(loaded.value().meta.seed, 18u);

  // Corrupt newest -> previous generation honored.
  StatusOr<std::string> on_disk = ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  std::string corrupt = on_disk.value();
  corrupt[corrupt.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path, corrupt, false).ok());
  loaded = serve::LoadModelArtifactOrPrev(path, &used_prev);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(used_prev);
  EXPECT_EQ(loaded.value().meta.seed, 17u);

  // Both generations corrupt -> load fails.
  ASSERT_TRUE(AtomicWriteFile(path + ".prev", corrupt, false).ok());
  EXPECT_FALSE(serve::LoadModelArtifactOrPrev(path, &used_prev).ok());
  fixtures::RemoveGenerations(path);
}

// ---------------------------------------------------------------------------
// Inference determinism.
// ---------------------------------------------------------------------------

TEST(InferenceSession, ModelStaysInEvalMode) {
  std::unique_ptr<InferenceSession> session = MakeSession();
  EXPECT_FALSE(session->model().training());
}

TEST(InferenceSession, RepeatedPredictIsBitIdentical) {
  // No RNG in inference: two identical predicts must return identical bits
  // (eval-mode Dropout is the identity; BatchNorm uses running stats).
  std::unique_ptr<InferenceSession> session = MakeSession();
  const std::vector<Tensor> windows = RawWindows(1);
  StatusOr<Tensor> first = session->Predict(windows[0]);
  StatusOr<Tensor> second = session->Predict(windows[0]);
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectBitsEqual(first.value(), second.value(), "repeated predict");
}

TEST(InferenceSession, BatchedForwardMatchesSequentialBitForBit) {
  std::unique_ptr<InferenceSession> session = MakeSession();
  const ArtifactMeta& meta = TrainedServingModel().artifact.meta;
  const int64_t k = 8;
  const std::vector<Tensor> windows = RawWindows(k);
  const int64_t window_size =
      meta.input_length * meta.num_nodes * meta.in_features;
  Tensor stacked(
      {k, meta.input_length, meta.num_nodes, meta.in_features});
  for (int64_t i = 0; i < k; ++i) {
    std::memcpy(stacked.data() + i * window_size, windows[i].data(),
                static_cast<size_t>(window_size) * sizeof(double));
  }
  StatusOr<Tensor> batched = session->PredictBatch(stacked);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const int64_t forecast_size = meta.output_length * meta.num_nodes;
  for (int64_t i = 0; i < k; ++i) {
    StatusOr<Tensor> single = session->Predict(windows[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_EQ(single.value().size(), forecast_size);
    EXPECT_EQ(std::memcmp(batched.value().data() + i * forecast_size,
                          single.value().data(),
                          static_cast<size_t>(forecast_size) *
                              sizeof(double)),
              0)
        << "batched row " << i << " differs from the sequential forward";
  }
}

TEST(InferenceSession, RejectsWrongWindowShape) {
  std::unique_ptr<InferenceSession> session = MakeSession();
  const ArtifactMeta& meta = TrainedServingModel().artifact.meta;
  Tensor wrong({meta.input_length + 1, meta.num_nodes, meta.in_features});
  EXPECT_FALSE(session->Predict(wrong).ok());
  Tensor wrong_batch(
      {2, meta.input_length, meta.num_nodes + 1, meta.in_features});
  EXPECT_FALSE(session->PredictBatch(wrong_batch).ok());
}

// No weight bounds input_length, so nothing a session allocates at creation
// may be sized by it: an artifact claiming a 10^8-step window still builds
// its session without an allocation of that size.
TEST(InferenceSession, CreateAllocatesNothingSizedByInputLength) {
  ModelArtifact artifact = TrainedServingModel().artifact;
  artifact.meta.input_length = 100'000'000;
  StatusOr<std::unique_ptr<InferenceSession>> session =
      Status::Internal("not created");
  const fixtures::Footprint footprint = fixtures::MeasureFootprint(
      [&] { session = InferenceSession::Create(artifact); });
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(footprint.unpooled_blocks, 0);
  EXPECT_LT(footprint.peak_rss_growth_mb, 64.0);
  // A window of the trained length no longer fits the claimed geometry.
  EXPECT_EQ(session.value()->Predict(RawWindows(1)[0]).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

TEST(ForecastServer, WorkerSweepIsBitIdenticalToSequential) {
  const int64_t k = 12;
  const std::vector<Tensor> windows = RawWindows(k);

  // Reference: sequential single-window forwards on one session.
  std::unique_ptr<InferenceSession> session = MakeSession();
  std::vector<Tensor> reference;
  for (const Tensor& window : windows) {
    StatusOr<Tensor> forecast = session->Predict(window);
    ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
    reference.push_back(std::move(forecast).value());
  }

  for (int64_t workers : {1, 2, 4}) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch = 8;
    ForecastServer server(TrainedServingModel().artifact, options);
    ASSERT_TRUE(server.Start().ok());
    std::vector<std::future<StatusOr<Tensor>>> futures;
    for (const Tensor& window : windows) {
      futures.push_back(server.Submit(window.Clone()));
    }
    for (int64_t i = 0; i < k; ++i) {
      StatusOr<Tensor> result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitsEqual(result.value(), reference[i],
                      "workers=" + std::to_string(workers) + " request " +
                          std::to_string(i));
    }
    server.Stop();
    const ForecastServer::Stats stats = server.stats();
    EXPECT_EQ(stats.requests_served, k) << "workers=" << workers;
    EXPECT_GE(stats.batches, 1) << "workers=" << workers;
    EXPECT_LE(stats.max_batch_observed, options.max_batch);
  }
}

TEST(ForecastServer, WrongShapeWindowFailsAloneInItsBatch) {
  const int64_t k = 8;
  const int64_t bad = 4;
  const std::vector<Tensor> windows = RawWindows(k);
  std::unique_ptr<InferenceSession> session = MakeSession();
  const ArtifactMeta& meta = TrainedServingModel().artifact.meta;
  const Tensor wrong({meta.input_length + 1, meta.num_nodes,
                      meta.in_features});
  const Status expected = session->Predict(wrong).status();
  ASSERT_EQ(expected.code(), StatusCode::kInvalidArgument);

  // One worker, so the requests queued behind the first forward coalesce
  // into batches with the malformed one among them.
  ServeOptions options;
  options.workers = 1;
  options.max_batch = k;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<StatusOr<Tensor>>> futures;
  for (int64_t i = 0; i < k; ++i) {
    futures.push_back(server.Submit(i == bad ? wrong.Clone()
                                             : windows[i].Clone()));
  }
  for (int64_t i = 0; i < k; ++i) {
    StatusOr<Tensor> result = futures[i].get();
    if (i == bad) {
      EXPECT_EQ(result.status().ToString(), expected.ToString());
      continue;
    }
    ASSERT_TRUE(result.ok()) << "request " << i << ": "
                             << result.status().ToString();
    StatusOr<Tensor> reference = session->Predict(windows[i]);
    ASSERT_TRUE(reference.ok());
    ExpectBitsEqual(result.value(), reference.value(),
                    "request " + std::to_string(i));
  }
  server.Stop();
  EXPECT_EQ(server.stats().requests_served, k - 1);
}

// Regression: a zero/negative knob (these arrive straight from CLI flags)
// must be a typed InvalidArgument naming the knob at Start() — it used to
// be a process-aborting CHECK in the constructor.
TEST(ForecastServer, StartRejectsNonPositiveOptionsWithInvalidArgument) {
  const struct {
    int64_t workers, max_batch, queue_capacity;
    const char* knob;
  } cases[] = {
      {0, 8, 256, "workers"},
      {-2, 8, 256, "workers"},
      {1, 0, 256, "max_batch"},
      {1, -1, 256, "max_batch"},
      {1, 8, 0, "queue_capacity"},
      {1, 8, -64, "queue_capacity"},
  };
  for (const auto& bad : cases) {
    ServeOptions options;
    options.workers = bad.workers;
    options.max_batch = bad.max_batch;
    options.queue_capacity = bad.queue_capacity;
    ForecastServer server(TrainedServingModel().artifact, options);
    const Status started = server.Start();
    ASSERT_FALSE(started.ok()) << bad.knob;
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument) << bad.knob;
    EXPECT_NE(started.message().find(bad.knob), std::string::npos)
        << "message \"" << started.message()
        << "\" does not name the offending knob";
    // A server whose Start() was rejected behaves like one never started:
    // submissions fail typed, Stop() is a safe no-op.
    StatusOr<Tensor> result = server.Predict(RawWindows(1)[0]);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    server.Stop();
  }
  // The boundary value 1/1/1 is valid and serves.
  ServeOptions minimal;
  minimal.workers = 1;
  minimal.max_batch = 1;
  minimal.queue_capacity = 1;
  ForecastServer server(TrainedServingModel().artifact, minimal);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Predict(RawWindows(1)[0]).ok());
  server.Stop();
}

TEST(ForecastServer, StopIsGracefulAndRejectsLateSubmissions) {
  ServeOptions options;
  options.workers = 2;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<Tensor> windows = RawWindows(4);
  std::vector<std::future<StatusOr<Tensor>>> futures;
  for (const Tensor& window : windows) {
    futures.push_back(server.Submit(window.Clone()));
  }
  server.Stop();
  // Every accepted request was served before the workers exited.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  StatusOr<Tensor> late = server.Predict(windows[0]);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(server.stats().rejected, 1);
}

TEST(ForecastServer, ExpiredDeadlinesFailWithoutForwarding) {
  ServeOptions options;
  options.workers = 1;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<Tensor> windows = RawWindows(3);
  std::vector<std::future<StatusOr<Tensor>>> futures;
  for (const Tensor& window : windows) {
    futures.push_back(server.Submit(window.Clone(), Deadline::After(-1.0)));
  }
  for (auto& future : futures) {
    StatusOr<Tensor> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  server.Stop();
  EXPECT_EQ(server.stats().expired, 3);
  EXPECT_EQ(server.stats().requests_served, 0);
}

TEST(ForecastServer, CancelledTokenFailsNewSubmissions) {
  CancellationToken token;
  ServeOptions options;
  options.workers = 1;
  options.cancel = &token;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  token.Cancel();
  const std::vector<Tensor> windows = RawWindows(1);
  StatusOr<Tensor> result = server.Predict(windows[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  server.Stop();
  EXPECT_GE(server.stats().cancelled, 1);
}

TEST(ForecastServer, BurstConservesEveryRequest) {
  // Back-pressure integration: with a tiny queue, a burst larger than
  // capacity sees some immediate Unavailable rejections; every accepted
  // request must still resolve OK and the books must balance exactly.
  ServeOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.queue_capacity = 2;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  const int64_t total = 32;
  const std::vector<Tensor> windows = RawWindows(4);
  std::vector<std::future<StatusOr<Tensor>>> futures;
  for (int64_t i = 0; i < total; ++i) {
    futures.push_back(server.Submit(windows[i % windows.size()].Clone()));
  }
  int64_t ok_count = 0;
  int64_t rejected_count = 0;
  for (auto& future : futures) {
    StatusOr<Tensor> result = future.get();
    if (result.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++rejected_count;
    }
  }
  server.Stop();
  EXPECT_EQ(ok_count + rejected_count, total);
  EXPECT_EQ(server.stats().requests_served, ok_count);
  EXPECT_EQ(server.stats().rejected, rejected_count);
}

TEST(ForecastServer, MetricsFlushOnStop) {
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.workers = 2;
  options.metrics = &registry;
  ForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<Tensor> windows = RawWindows(6);
  std::vector<std::future<StatusOr<Tensor>>> futures;
  for (const Tensor& window : windows) {
    futures.push_back(server.Submit(window.Clone()));
  }
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  server.Stop();
  EXPECT_EQ(registry.GetCounter(serve::kMetricRequestsServed)->value(), 6);
  EXPECT_GE(registry.GetCounter(serve::kMetricBatches)->value(), 1);
}

// ---------------------------------------------------------------------------
// Bounded queue unit coverage (the deterministic back-pressure seam).
// ---------------------------------------------------------------------------

TEST(BoundedQueue, TryPushFailsExactlyWhenFull) {
  BoundedQueue<int> queue(2);
  int a = 1;
  int b = 2;
  int c = 3;
  EXPECT_TRUE(queue.TryPush(a));
  EXPECT_TRUE(queue.TryPush(b));
  EXPECT_FALSE(queue.TryPush(c));
  EXPECT_EQ(queue.size(), 2u);
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(8, &batch), 2u);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  EXPECT_TRUE(queue.TryPush(c));
}

TEST(BoundedQueue, PopBatchRespectsMaxItems) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.TryPush(v));
  }
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(3, &batch), 3u);
  EXPECT_EQ(queue.PopBatch(3, &batch), 2u);
  EXPECT_EQ(batch.size(), 5u);
}

TEST(BoundedQueue, CloseDrainsThenSignalsShutdown) {
  BoundedQueue<int> queue(4);
  int v = 7;
  ASSERT_TRUE(queue.TryPush(v));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(v));
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(4, &batch), 1u);  // drains queued work first
  EXPECT_EQ(queue.PopBatch(4, &batch), 0u);  // then reports closed
}

}  // namespace
}  // namespace autocts
