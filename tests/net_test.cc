// End-to-end suite for the TCP serving front-end (src/net/): real sockets
// on loopback, the real client library, and (for the signal and CLI cases)
// the real shipped CLI binary.
//
// The central contract: a forecast fetched over the wire is byte-identical
// to the in-process InferenceSession::PredictBatch result — at every tested
// workers x max_batch combination, under concurrent clients. The transport
// moves IEEE-754 bit images, so there is no tolerance anywhere in this
// file; every comparison is memcmp.
//
// Failure modes get the same treatment as success: expired wire deadlines,
// cancelled tokens, a shed (full or stopped) queue, corrupt frames,
// mid-frame disconnects, and SIGTERM during in-flight requests must each
// produce the exact typed outcome the in-process API produces — or, for
// the transport-level cases, leave the server serving.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/file_io.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire_codec.h"
#include "serve/model_artifact.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

using fixtures::ExpectBitsEqual;
using fixtures::RawWindows;
using fixtures::TrainedServingModel;
using net::ForecastClient;
using net::ForecastClientOptions;
using net::TcpForecastServer;
using net::TcpServeOptions;
using serve::ArtifactMeta;
using serve::InferenceSession;

#ifndef AUTOCTS_CLI_PATH
#error "AUTOCTS_CLI_PATH must be defined by the build"
#endif

// The in-process ground truth: all windows through one PredictBatch call.
std::vector<Tensor> ReferenceForecasts(const std::vector<Tensor>& windows) {
  const ArtifactMeta& meta = TrainedServingModel().artifact.meta;
  StatusOr<std::unique_ptr<InferenceSession>> session =
      InferenceSession::Create(TrainedServingModel().artifact);
  AUTOCTS_CHECK(session.ok()) << session.status().ToString();
  const int64_t k = static_cast<int64_t>(windows.size());
  Tensor stacked = Tensor::Uninitialized(
      {k, meta.input_length, meta.num_nodes, meta.in_features});
  const int64_t window_size =
      meta.input_length * meta.num_nodes * meta.in_features;
  for (int64_t i = 0; i < k; ++i) {
    std::copy(windows[i].data(), windows[i].data() + window_size,
              stacked.data() + i * window_size);
  }
  StatusOr<Tensor> forecasts = session.value()->PredictBatch(stacked);
  AUTOCTS_CHECK(forecasts.ok()) << forecasts.status().ToString();
  const int64_t forecast_size = meta.output_length * meta.num_nodes;
  std::vector<Tensor> rows;
  for (int64_t i = 0; i < k; ++i) {
    Tensor row =
        Tensor::Uninitialized({meta.output_length, meta.num_nodes});
    std::copy(forecasts.value().data() + i * forecast_size,
              forecasts.value().data() + (i + 1) * forecast_size,
              row.data());
    rows.push_back(std::move(row));
  }
  return rows;
}

TcpServeOptions LoopbackOptions(int64_t workers, int64_t max_batch) {
  TcpServeOptions options;
  options.serve.workers = workers;
  options.serve.max_batch = max_batch;
  options.port = 0;  // ephemeral
  return options;
}

ForecastClientOptions ClientFor(const TcpForecastServer& server) {
  ForecastClientOptions options;
  options.port = server.port();
  options.retry.max_attempts = 1;  // exact status assertions: never retry
  options.request_timeout_seconds = 60.0;
  return options;
}

// ---------------------------------------------------------------------------
// Byte-identity across the wire.

// The acceptance gate: at every workers x max_batch combination, windows
// fetched through real sockets by concurrent clients come back
// bit-identical to one in-process PredictBatch over the same windows.
TEST(NetTest, LoopbackMatchesInProcessPredictBatchAcrossSweep) {
  const std::vector<Tensor> windows = RawWindows(12);
  const std::vector<Tensor> references = ReferenceForecasts(windows);
  const std::pair<int64_t, int64_t> sweep[] = {
      {1, 1}, {1, 4}, {2, 1}, {2, 8}, {4, 8}};
  for (const auto& [workers, max_batch] : sweep) {
    TcpForecastServer server(TrainedServingModel().artifact,
                             LoopbackOptions(workers, max_batch));
    ASSERT_TRUE(server.Start().ok());
    constexpr int kClients = 3;
    std::vector<Tensor> remote(windows.size());
    std::atomic<int64_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        ForecastClientOptions client_options = ClientFor(server);
        client_options.retry.max_attempts = 3;
        ForecastClient client(client_options);
        while (true) {
          const int64_t i = next.fetch_add(1);
          if (i >= static_cast<int64_t>(windows.size())) return;
          StatusOr<Tensor> forecast = client.Predict(windows[i]);
          if (!forecast.ok()) {
            ADD_FAILURE() << "request " << i << ": "
                          << forecast.status().ToString();
            failed.store(true);
            return;
          }
          remote[i] = std::move(forecast).value();
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
    ASSERT_FALSE(failed.load());
    const std::string config = "workers=" + std::to_string(workers) +
                               " max_batch=" + std::to_string(max_batch);
    for (size_t i = 0; i < windows.size(); ++i) {
      ExpectBitsEqual(remote[i], references[i],
                      config + " window " + std::to_string(i));
    }
    server.Stop();
    const TcpForecastServer::Stats stats = server.stats();
    EXPECT_EQ(stats.requests_decoded,
              static_cast<int64_t>(windows.size()));
    EXPECT_EQ(stats.responses_sent, static_cast<int64_t>(windows.size()));
    EXPECT_EQ(stats.protocol_errors, 0);
  }
}

// Repeating the same window over one connection returns identical bits
// every time — no per-request state leaks into the forward.
TEST(NetTest, RepeatedRequestsAreBitStable) {
  const std::vector<Tensor> windows = RawWindows(1);
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(2, 4));
  ASSERT_TRUE(server.Start().ok());
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  StatusOr<Tensor> first = client.Predict(windows[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int repeat = 0; repeat < 5; ++repeat) {
    StatusOr<Tensor> again = client.Predict(windows[0]);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectBitsEqual(again.value(), first.value(),
                    "repeat " + std::to_string(repeat));
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Typed failure outcomes across the wire.

TEST(NetTest, ExpiredWireDeadlineComesBackAsDeadlineExceeded) {
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(1, 1));
  ASSERT_TRUE(server.Start().ok());
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  // A negative budget is already expired when the server decodes it — the
  // deterministic version of "the deadline fired while queued".
  const StatusOr<Tensor> forecast =
      client.Predict(RawWindows(1)[0], /*deadline_seconds=*/-1.0);
  ASSERT_FALSE(forecast.ok());
  EXPECT_EQ(forecast.status().code(), StatusCode::kDeadlineExceeded);
  // The connection survives a typed failure; the next request succeeds.
  EXPECT_TRUE(client.Predict(RawWindows(1)[0]).ok());
  server.Stop();
  EXPECT_EQ(server.stats().error_frames_sent, 1);
}

TEST(NetTest, CancelledTokenFailsRequestsWithCancelledOverTheWire) {
  CancellationToken token;
  TcpServeOptions options = LoopbackOptions(1, 1);
  options.serve.cancel = &token;
  TcpForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Predict(RawWindows(1)[0]).ok());  // serving normally
  token.Cancel();
  const StatusOr<Tensor> forecast = client.Predict(RawWindows(1)[0]);
  ASSERT_FALSE(forecast.ok());
  EXPECT_EQ(forecast.status().code(), StatusCode::kCancelled);
  server.Stop();
}

// Load shedding crosses the wire unchanged: a Submit rejected by the inner
// server becomes a kUnavailable status frame. Stopping the inner server
// makes the rejection deterministic (a real full-queue race is probed
// separately below).
TEST(NetTest, ShedRequestsComeBackAsUnavailable) {
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(1, 1));
  ASSERT_TRUE(server.Start().ok());
  server.forecast_server().Stop();
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  const StatusOr<Tensor> forecast = client.Predict(RawWindows(1)[0]);
  ASSERT_FALSE(forecast.ok());
  EXPECT_EQ(forecast.status().code(), StatusCode::kUnavailable);
  server.Stop();
}

// A burst against a capacity-1 queue: every request either succeeds with
// the exact reference bits or is shed with kUnavailable — conservation,
// no third outcome, and the server keeps serving afterwards.
TEST(NetTest, QueueFullBurstConservesEveryRequest) {
  TcpServeOptions options = LoopbackOptions(1, 1);
  options.serve.queue_capacity = 1;
  TcpForecastServer server(TrainedServingModel().artifact, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<Tensor> windows = RawWindows(1);
  const std::vector<Tensor> references = ReferenceForecasts(windows);
  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> shed_count{0};
  std::atomic<int64_t> other_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ForecastClient client(ClientFor(server));
      if (!client.Connect().ok()) {
        other_count.fetch_add(kPerClient);
        return;
      }
      for (int r = 0; r < kPerClient; ++r) {
        const StatusOr<Tensor> forecast = client.Predict(windows[0]);
        if (forecast.ok()) {
          ok_count.fetch_add(1);
          ExpectBitsEqual(forecast.value(), references[0], "burst");
        } else if (forecast.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected outcome: "
                        << forecast.status().ToString();
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load() + shed_count.load() + other_count.load(),
            kClients * kPerClient);
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GE(ok_count.load(), 1);
  // Still serving after the burst.
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Predict(windows[0]).ok());
  server.Stop();
  // The wire's shed count mirrors the inner server's rejected count
  // exactly (plus nothing): the status frame is the only shed channel.
  EXPECT_EQ(server.stats().error_frames_sent,
            server.forecast_server().stats().rejected);
}

// ---------------------------------------------------------------------------
// Hostile transport behavior, via raw sockets.

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  AUTOCTS_CHECK_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  AUTOCTS_CHECK_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  AUTOCTS_CHECK_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string RawReadAll(int fd) {
  std::string bytes;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return bytes;  // EOF or error: the server closed on us
    bytes.append(chunk, static_cast<size_t>(got));
  }
}

// A corrupt frame gets a typed kInvalidArgument status frame and then the
// connection is closed — after damage the stream framing cannot be
// trusted, so the server refuses to resynchronize.
TEST(NetTest, CorruptFrameGetsStatusReplyAndConnectionClose) {
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(1, 1));
  ASSERT_TRUE(server.Start().ok());
  std::string frame = net::EncodePredictRequest(RawWindows(1)[0]);
  frame[net::kFrameHeaderBytes] ^= 0x40;  // flip one payload bit
  const int fd = RawConnect(server.port());
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const std::string reply = RawReadAll(fd);  // returns at server close
  ::close(fd);
  const StatusOr<net::Frame> decoded = net::DecodeFrame(reply);
  ASSERT_TRUE(decoded.ok()) << "reply was not one well-formed frame";
  EXPECT_EQ(decoded.value().type, net::FrameType::kStatus);
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kInvalidArgument);
  // The server counted the protocol error and keeps serving others.
  EXPECT_EQ(server.stats().protocol_errors, 1);
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Predict(RawWindows(1)[0]).ok());
  server.Stop();
}

// A client that vanishes mid-frame must not wedge or kill the server.
TEST(NetTest, MidFrameDisconnectIsCountedAndServerSurvives) {
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(1, 1));
  ASSERT_TRUE(server.Start().ok());
  const std::string frame = net::EncodePredictRequest(RawWindows(1)[0]);
  // Once inside the header, once inside the payload.
  for (const size_t keep : {size_t{5}, net::kFrameHeaderBytes + 3}) {
    const int fd = RawConnect(server.port());
    ASSERT_EQ(::send(fd, frame.data(), keep, 0),
              static_cast<ssize_t>(keep));
    ::close(fd);  // vanish
  }
  // The handler threads observe the EOF asynchronously.
  for (int spin = 0;
       spin < 200 && server.stats().disconnects_mid_frame < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().disconnects_mid_frame, 2);
  ForecastClient client(ClientFor(server));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Predict(RawWindows(1)[0]).ok());
  server.Stop();
}

// An empty connect/close (a health checker, a port scanner) is a clean
// EOF, not a protocol error.
TEST(NetTest, EmptyConnectionIsNotAProtocolError) {
  TcpForecastServer server(TrainedServingModel().artifact,
                           LoopbackOptions(1, 1));
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  ::close(fd);
  for (int spin = 0;
       spin < 200 && server.stats().connections_accepted < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  EXPECT_EQ(server.stats().protocol_errors, 0);
  EXPECT_EQ(server.stats().disconnects_mid_frame, 0);
}

// ---------------------------------------------------------------------------
// Options validation (the satellite): the TCP layer propagates the inner
// server's typed rejection instead of crashing on a bad knob.

TEST(NetTest, BadServeOptionsFailTcpStartWithInvalidArgument) {
  TcpServeOptions options = LoopbackOptions(0, 8);  // workers = 0
  TcpForecastServer server(TrainedServingModel().artifact, options);
  const Status started = server.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(started.message().find("workers"), std::string::npos);
  server.Stop();  // must be safe after a failed Start
}

// ---------------------------------------------------------------------------
// The shipped CLI binary: serve-tcp under SIGTERM, and the serving commands
// end to end.

std::string TempPath(const std::string& name) {
  return fixtures::TempPath("net_test", name);
}

// The CLI run as a child process with its stdout and stderr in `log_path`.
// The destructor kills and reaps a child that is still running, so a failed
// assertion leaves no server behind.
class CliProcess {
 public:
  CliProcess(const std::vector<std::string>& args, std::string log_path)
      : log_path_(std::move(log_path)) {
    std::vector<char*> argv = {const_cast<char*>(AUTOCTS_CLI_PATH)};
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    AUTOCTS_CHECK_GE(pid_, 0);
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.
      const int fd = ::open(log_path_.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0 ||
          ::dup2(fd, STDERR_FILENO) < 0) {
        std::_Exit(126);
      }
      ::execv(AUTOCTS_CLI_PATH, argv.data());
      std::_Exit(127);  // exec failed
    }
  }
  CliProcess(const CliProcess&) = delete;
  CliProcess& operator=(const CliProcess&) = delete;
  ~CliProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Wait();
    }
  }

  // The port from serve-tcp's "listening on 127.0.0.1:PORT" line, or 0
  // when the line does not appear within 30 s.
  int WaitForPort() const {
    const std::string prefix = "listening on 127.0.0.1:";
    for (int spin = 0; spin < 600; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::istringstream log(Output());
      std::string line;
      while (std::getline(log, line)) {
        if (line.rfind(prefix, 0) == 0) {
          return std::atoi(line.c_str() + prefix.size());
        }
      }
    }
    return 0;
  }

  bool Signal(int signal) const { return ::kill(pid_, signal) == 0; }

  // Reaps the child: its exit code, or -1 when a signal ended it.
  int Wait() {
    int raw_status = 0;
    const pid_t waited = ::waitpid(pid_, &raw_status, 0);
    pid_ = -1;
    return waited > 0 && WIFEXITED(raw_status) ? WEXITSTATUS(raw_status)
                                               : -1;
  }

  std::string Output() const {
    StatusOr<std::string> text = ReadFileToString(log_path_);
    return text.ok() ? text.value() : std::string();
  }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
};

// Serve-tcp under fire: launch the shipped binary, keep a request stream
// going, SIGTERM it mid-flight. The process must drain (every response that
// was sent is byte-exact), report its stats line, and exit with the
// repo-wide SIGTERM code 143.
TEST(NetTest, SigtermDuringInflightRequestsDrainsAndExits143) {
  const std::string artifact_path = TempPath("model.artifact");
  ASSERT_TRUE(
      serve::SaveModelArtifact(TrainedServingModel().artifact, artifact_path)
          .ok());
  const std::string log_path = TempPath("serve.log");
  CliProcess server({"serve-tcp", "--artifact", artifact_path, "--port", "0"},
                    log_path);
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << "server never reported its port";

  const std::vector<Tensor> windows = RawWindows(1);
  const std::vector<Tensor> references = ReferenceForecasts(windows);

  // Keep requests in flight while the signal lands.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<bool> mismatch{false};
  std::thread pump([&] {
    ForecastClientOptions options;
    options.port = port;
    options.retry.max_attempts = 1;
    options.request_timeout_seconds = 30.0;
    ForecastClient client(options);
    if (!client.Connect().ok()) return;
    while (!stop.load()) {
      StatusOr<Tensor> forecast = client.Predict(windows[0]);
      if (!forecast.ok()) return;  // shutdown reached us: stream over
      if (forecast.value().shape() != references[0].shape() ||
          std::memcmp(forecast.value().data(), references[0].data(),
                      static_cast<size_t>(references[0].size()) *
                          sizeof(double)) != 0) {
        mismatch.store(true);
      }
      completed.fetch_add(1);
    }
  });

  // Let at least one response land so the signal truly arrives mid-stream.
  for (int spin = 0; spin < 600 && completed.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(completed.load(), 1);
  EXPECT_TRUE(server.Signal(SIGTERM));
  const int exit_code = server.Wait();
  stop.store(true);
  pump.join();

  EXPECT_EQ(exit_code, 143);  // 128 + SIGTERM
  EXPECT_FALSE(mismatch.load())
      << "a drained response differed from the in-process reference";
  // The drain stats line made it out before exit.
  EXPECT_NE(server.Output().find("serve-tcp drained:"), std::string::npos);
  fixtures::RemoveGenerations(artifact_path);
  std::remove(log_path.c_str());
}

// Runs the CLI to completion: its exit code, with what it printed in
// *output.
int RunCli(const std::vector<std::string>& args, std::string* output) {
  const std::string log_path = TempPath("cli.log");
  CliProcess cli(args, log_path);
  const int exit_code = cli.Wait();
  *output = cli.Output();
  std::remove(log_path.c_str());
  return exit_code;
}

// The `exact q*` lines of a predict or predict-remote output.
std::string ExactLines(const std::string& output) {
  std::istringstream stream(output);
  std::string exact;
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind("exact q", 0) == 0) exact += line + "\n";
  }
  return exact;
}

// The serving commands end to end: export-artifact trains on a tiny
// dataset, then `predict` (in process) and `serve-tcp` + `predict-remote`
// (over the wire) forecast the same window, and their exact hex-float lines
// are byte-identical.
TEST(NetTest, CliPredictRemoteMatchesPredictByteForByte) {
  const std::string genotype_path = TempPath("cli_genotype.txt");
  const std::string artifact_path = TempPath("cli_model.artifact");
  const std::string serve_log = TempPath("cli_serve.log");
  ASSERT_TRUE(AtomicWriteFile(genotype_path,
                              fixtures::MakeCandidateGenotype(2).ToText(),
                              /*keep_previous=*/false)
                  .ok());
  const auto with_data = [](std::vector<std::string> args) {
    for (const char* flag :
         {"--kind", "traffic-speed", "--nodes", "4", "--steps", "200",
          "--input", "6", "--output", "3"}) {
      args.push_back(flag);
    }
    return args;
  };
  std::string output;
  ASSERT_EQ(RunCli(with_data({"export-artifact", "--genotype", genotype_path,
                              "--out", artifact_path, "--hidden", "8",
                              "--epochs", "1", "--batch", "8",
                              "--max-batches", "2"}),
                   &output),
            0)
      << output;
  ASSERT_EQ(RunCli(with_data({"predict", "--artifact", artifact_path}),
                   &output),
            0)
      << output;
  const std::string local = ExactLines(output);

  CliProcess server({"serve-tcp", "--artifact", artifact_path, "--port", "0"},
                    serve_log);
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << "server never reported its port";
  ASSERT_EQ(RunCli(with_data({"predict-remote", "--port",
                              std::to_string(port)}),
                   &output),
            0)
      << output;
  const std::string remote = ExactLines(output);

  EXPECT_EQ(std::count(local.begin(), local.end(), '\n'), 3) << local;
  EXPECT_EQ(remote, local);
  EXPECT_TRUE(server.Signal(SIGTERM));
  EXPECT_EQ(server.Wait(), 143);
  std::remove(genotype_path.c_str());
  fixtures::RemoveGenerations(artifact_path);
  std::remove(serve_log.c_str());
}

}  // namespace
}  // namespace autocts
