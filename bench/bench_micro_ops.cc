// google-benchmark microbenchmarks of the substrate primitives that
// dominate search and training cost: matmul, causal convolution, attention,
// diffusion GCN, a full mixed edge, and one supernet forward/backward; and
// of the layers of a model-artifact load: the CRC, the hex-float values
// (read and written) and the whole decode.
#include <benchmark/benchmark.h>

#include "alloc_count.h"
#include "common/buffer_pool.h"
#include "common/file_io.h"
#include "common/parallel.h"
#include "common/text_codec.h"
#include "core/evaluator.h"
#include "core/micro_dag.h"
#include "core/supernet.h"
#include "data/synthetic/generators.h"
#include "graph/adjacency.h"
#include "nn/conv.h"
#include "ops/op_registry.h"
#include "serve/model_artifact.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

// Reports heap allocations per iteration (process-wide operator-new count,
// see alloc_count.h) as an "allocs/iter" counter. Instantiate before the
// state loop; the destructor records the counter. With the buffer pool
// warm the hot kernels should report ~0.
class ScopedAllocCounter {
 public:
  explicit ScopedAllocCounter(benchmark::State& state)
      : state_(state), start_(bench::AllocCount().allocations) {}
  ~ScopedAllocCounter() {
    const int64_t delta = bench::AllocCount().allocations - start_;
    state_.counters["allocs/iter"] =
        benchmark::Counter(static_cast<double>(delta) /
                           static_cast<double>(state_.iterations()));
  }

 private:
  benchmark::State& state_;
  int64_t start_;
};

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::Rand({n, n}, &rng);
  const Tensor b = Tensor::Rand({n, n}, &rng);
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// The alloc-reduction claim measured at the op level: identical matmuls
// with the pool force-disabled, for a side-by-side allocs/iter row.
void BM_MatMulPoolOff(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::Rand({n, n}, &rng);
  const Tensor b = Tensor::Rand({n, n}, &rng);
  BufferPool& pool = BufferPool::Global();
  const bool previous = pool.enabled();
  pool.SetEnabled(false);
  {
    ScopedAllocCounter allocs(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(MatMul(a, b));
    }
  }
  pool.SetEnabled(previous);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulPoolOff)->Arg(32)->Arg(64)->Arg(128);

// Sets the pool size for the duration of one benchmark, restoring the
// previous value afterwards so later benchmarks see the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(int64_t n) : previous_(NumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedThreads() { SetNumThreads(previous_); }

 private:
  int64_t previous_;
};

// Per-kernel GFLOP/s across matmul sizes x thread counts; the headline
// numbers for the blocked parallel kernel rewrite.
void BM_MatMulSweep(benchmark::State& state) {
  const int64_t n = state.range(0);
  ScopedThreads threads(state.range(1));
  Rng rng(1);
  const Tensor a = Tensor::Rand({n, n}, &rng);
  const Tensor b = Tensor::Rand({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_MatMulSweep)
    ->ArgsProduct({{64, 128, 256}, {1, 2, 4}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime();  // GFLOP/s against wall clock, not main-thread CPU.

// The unblocked serial reference kernel at the same sizes, so the bench
// trajectory records the speedup of the blocked kernel directly.
void BM_MatMulNaiveRef(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::Rand({n, n}, &rng);
  const Tensor b = Tensor::Rand({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulNaive(a, b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_MatMulNaiveRef)->Arg(64)->Arg(128)->Arg(256)->ArgNames({"n"});

// Causal temporal convolution (the T-operator workhorse) across channel
// widths x thread counts.
void BM_ConvSweep(benchmark::State& state) {
  const int64_t channels = state.range(0);
  ScopedThreads threads(state.range(1));
  Rng rng(8);
  nn::TemporalConv1d conv(channels, channels, /*kernel_size=*/2,
                          /*dilation=*/1, /*causal=*/true, &rng);
  conv.SetTraining(false);
  const int64_t batch = 8, time = 24, nodes = 12;
  const Tensor x = Tensor::Rand({batch, time, nodes, channels}, &rng, -1.0,
                                1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(Variable(x, false)));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * batch * time * nodes * 2 * channels * channels,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvSweep)
    ->ArgsProduct({{16, 32, 64}, {1, 2, 4}})
    ->ArgNames({"channels", "threads"})
    ->UseRealTime();

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(2);
  const Tensor a = Tensor::Rand({8, 12, 16, 16}, &rng);
  const Tensor b = Tensor::Rand({16, 16}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_Softmax(benchmark::State& state) {
  Rng rng(3);
  const Tensor a = Tensor::Rand({64, 128}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a, 1));
  }
}
BENCHMARK(BM_Softmax);

ops::OpContext BenchContext(Rng* rng) {
  ops::OpContext context;
  context.channels = 16;
  context.num_nodes = 12;
  context.rng = rng;
  Rng graph_rng(11);
  context.adjacency = graph::DistanceGaussianAdjacency(
      graph::RandomPositions(12, &graph_rng), 0.5, 0.1);
  return context;
}

void BM_OperatorForward(benchmark::State& state, const std::string& name) {
  Rng rng(4);
  ops::OpContext context = BenchContext(&rng);
  ops::StOperatorPtr op = ops::CreateOp(name, context);
  op->SetTraining(false);
  const Tensor x = Tensor::Rand({8, 12, 12, 16}, &rng, -1.0, 1.0);
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op->Forward(Variable(x, false)));
  }
}
BENCHMARK_CAPTURE(BM_OperatorForward, gdcc, "gdcc");
BENCHMARK_CAPTURE(BM_OperatorForward, dgcn, "dgcn");
BENCHMARK_CAPTURE(BM_OperatorForward, inf_t, "inf_t");
BENCHMARK_CAPTURE(BM_OperatorForward, inf_s, "inf_s");
BENCHMARK_CAPTURE(BM_OperatorForward, gru, "gru");

void BM_OperatorBackward(benchmark::State& state, const std::string& name) {
  Rng rng(5);
  ops::OpContext context = BenchContext(&rng);
  ops::StOperatorPtr op = ops::CreateOp(name, context);
  const Tensor x = Tensor::Rand({8, 12, 12, 16}, &rng, -1.0, 1.0);
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    Variable input(x, true);
    Variable loss = ag::SumAll(op->Forward(input));
    loss.Backward();
    benchmark::DoNotOptimize(input.grad());
    for (Variable& p : op->Parameters()) p.ClearGrad();
  }
}
BENCHMARK_CAPTURE(BM_OperatorBackward, gdcc, "gdcc");
BENCHMARK_CAPTURE(BM_OperatorBackward, dgcn, "dgcn");
BENCHMARK_CAPTURE(BM_OperatorBackward, inf_t, "inf_t");

void BM_MixedEdgeForward(benchmark::State& state) {
  const int64_t partial = state.range(0);
  Rng rng(6);
  ops::OpContext context = BenchContext(&rng);
  core::MixedEdge edge(core::CompactOperatorSet(), context, partial);
  edge.SetTraining(false);
  const Tensor x = Tensor::Rand({8, 12, 12, 16}, &rng, -1.0, 1.0);
  const Tensor w = Softmax(Tensor::Rand({6}, &rng), 0);
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        edge.Forward(Variable(x, false), Variable(w, false)));
  }
}
// Partial channels (PC-DARTS) vs full channels: the 1/4 setting should be
// markedly cheaper, which is why the paper adopts it (Section 4.1.4).
BENCHMARK(BM_MixedEdgeForward)->Arg(1)->Arg(4);

void BM_MicroDagCellForward(benchmark::State& state) {
  Rng rng(7);
  ops::OpContext context = BenchContext(&rng);
  core::MicroDagCell cell(5, core::CompactOperatorSet(), context, 4, &rng);
  cell.SetTraining(false);
  const Tensor x = Tensor::Rand({8, 12, 12, 16}, &rng, -1.0, 1.0);
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Forward(Variable(x, false), 1.0));
  }
}
BENCHMARK(BM_MicroDagCellForward);

// The checksum of every sealed file and wire frame, over 1 MiB.
void BM_Crc32(benchmark::State& state) {
  Rng rng(9);
  std::string bytes(size_t{1} << 20, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

// One weight value of a state record: "%a" tokens of weight-sized doubles,
// whose fractions use all 13 digits.
void BM_ParseExactDouble(benchmark::State& state) {
  Rng rng(10);
  std::vector<std::string> tokens(4096);
  for (std::string& token : tokens) {
    token = FormatExactDouble(rng.Normal(0.0, 0.1));
  }
  double value = 0.0;
  for (auto _ : state) {
    for (const std::string& token : tokens) {
      benchmark::DoNotOptimize(ParseExactDouble(token, &value));
      benchmark::DoNotOptimize(value);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tokens.size()));
}
BENCHMARK(BM_ParseExactDouble);

// Its inverse: weight-sized doubles written into one record.
void BM_TextWriterDouble(benchmark::State& state) {
  Rng rng(10);
  std::vector<double> values(4096);
  for (double& value : values) value = rng.Normal(0.0, 0.1);
  for (auto _ : state) {
    TextWriter writer;
    writer.Record("w");
    for (const double value : values) writer.Double(value);
    benchmark::DoNotOptimize(writer.Release());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_TextWriterDouble);

// The artifact of the model a fixed-seed supernet derives, untrained, at
// the geometry perfbench's serve_tcp serves (12 nodes, P = Q = 12, hidden
// 16).
const std::string& FixedSeedArtifactText() {
  static const std::string text = [] {
    data::TrafficSpeedConfig speed;
    speed.num_nodes = 12;
    speed.num_steps = 1440;
    speed.seed = 7;
    data::WindowSpec window;
    window.input_length = 12;
    window.output_length = 12;
    const models::PreparedData prepared = models::PrepareData(
        data::GenerateTrafficSpeed(speed), window, 0.7, 0.1);
    const int64_t hidden = 16;
    const uint64_t seed = 7;
    const core::Supernet supernet(
        core::SupernetConfig(),
        models::MakeModelContext(prepared, hidden, seed));
    const std::unique_ptr<core::DerivedModel> model =
        core::BuildDerivedModel(supernet.Derive(), prepared, hidden, seed);
    return serve::EncodeModelArtifact(
        serve::MakeModelArtifact(*model, prepared, hidden, seed));
  }();
  return text;
}

// A model-artifact load after the file read: the seal's CRC, the record
// index, the state-dict values and the geometry checks.
void BM_DecodeModelArtifact(benchmark::State& state) {
  const std::string& text = FixedSeedArtifactText();
  for (auto _ : state) {
    StatusOr<serve::ModelArtifact> artifact = serve::DecodeModelArtifact(text);
    AUTOCTS_CHECK(artifact.ok());
    benchmark::DoNotOptimize(artifact);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
  state.counters["artifact_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_DecodeModelArtifact)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace autocts

BENCHMARK_MAIN();
