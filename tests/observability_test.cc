// Observability suite for the span tracer (common/trace.h) and metrics
// registry (common/metrics_registry.h):
//   * stopwatch monotonicity on the single steady clock source;
//   * span nesting, self-time telescoping, ring overflow accounting, and
//     Chrome trace-event JSON well-formedness;
//   * a golden main-thread span sequence for a fixed tiny search, proving
//     the instrumentation emits a complete, deterministic event stream;
//   * registry round-trips: CSV/JSONL shape, EncodeState/DecodeState
//     bit-exactness, corruption rejection, wall-column stripping;
//   * the bit-transparency contract: a search with tracing and metrics
//     enabled produces the identical genotype and losses as one with them
//     disabled, at 1 and 4 threads, with trace coverage >= 90%.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/search_metrics.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/model_zoo.h"
#include "models/trainer.h"

namespace autocts {
namespace {

using core::JointSearcher;
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;
using obs::MetricsRegistry;

PreparedData TinyData(uint64_t seed = 31) {
  data::TrafficSpeedConfig config;
  config.num_nodes = 4;
  config.num_steps = 300;
  config.seed = seed;
  data::WindowSpec window;
  window.input_length = 6;
  window.output_length = 3;
  return models::PrepareData(data::GenerateTrafficSpeed(config), window, 0.7,
                             0.1);
}

SearchOptions TinyOptions() {
  SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.supernet.partial_denominator = 4;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_batches_per_epoch = 4;
  return options;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "observability_test_" + name;
}

void RemoveSinkFiles(const std::string& base) {
  std::remove((base + ".csv").c_str());
  std::remove((base + ".jsonl").c_str());
}

// ---------------------------------------------------------------------------
// Stopwatch / clock source.

TEST(Stopwatch, SteadyNanosNeverDecreases) {
  int64_t previous = SteadyNowNanos();
  for (int i = 0; i < 10000; ++i) {
    const int64_t now = SteadyNowNanos();
    ASSERT_GE(now, previous);
    previous = now;
  }
}

TEST(Stopwatch, ElapsedIsNonNegativeAndGrows) {
  Stopwatch watch;
  EXPECT_GE(watch.Nanos(), 0);
  // Burn a little CPU; elapsed time must not shrink between reads.
  volatile double sink = 0.0;
  int64_t previous = watch.Nanos();
  for (int i = 0; i < 1000; ++i) {
    sink = sink + static_cast<double>(i);
    const int64_t now = watch.Nanos();
    ASSERT_GE(now, previous);
    previous = now;
  }
  EXPECT_GE(watch.Seconds(), 0.0);
  watch.Reset();
  EXPECT_GE(watch.Nanos(), 0);
}

// The fake clock replaces the real-time assertions above (which can only
// check monotonicity without flaking) with exact elapsed values.
TEST(Stopwatch, FakeClockYieldsExactElapsedValues) {
  ScopedFakeClock clock(/*start_nanos=*/1'000'000);
  EXPECT_TRUE(FakeClock::Installed());
  EXPECT_EQ(SteadyNowNanos(), 1'000'000);

  Stopwatch watch;
  EXPECT_EQ(watch.Nanos(), 0);
  FakeClock::Advance(2'500'000'000);  // 2.5 s
  EXPECT_EQ(watch.Nanos(), 2'500'000'000);
  EXPECT_EQ(watch.Seconds(), 2.5);
  EXPECT_EQ(watch.Millis(), 2500.0);

  watch.Reset();
  EXPECT_EQ(watch.Nanos(), 0);
  FakeClock::Advance(750);
  EXPECT_EQ(watch.Nanos(), 750);
}

TEST(Stopwatch, FakeClockUninstallsOnScopeExit) {
  {
    ScopedFakeClock clock(0);
    ASSERT_TRUE(FakeClock::Installed());
  }
  EXPECT_FALSE(FakeClock::Installed());
  // Back on the real clock: time moves again.
  const int64_t now = SteadyNowNanos();
  EXPECT_GT(now, 0);
}

TEST(Stopwatch, FakeClockDrivesTracerTimestamps) {
  ScopedFakeClock clock(/*start_nanos=*/100);
  trace::Start();
  {
    trace::Scope span("fake/outer");
    FakeClock::Advance(40);
    {
      trace::Scope inner("fake/inner");
      FakeClock::Advance(7);
    }
  }
  trace::Stop();
  const std::vector<trace::SpanEvent> events = trace::CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_ns, 100);
  EXPECT_EQ(events[0].duration_ns, 47);
  EXPECT_EQ(events[1].start_ns, 140);
  EXPECT_EQ(events[1].duration_ns, 7);
  EXPECT_EQ(events[0].self_ns, 40);
}

// ---------------------------------------------------------------------------
// Tracer core.

// Collects all events after running `body` inside a fresh trace.
std::vector<trace::SpanEvent> TraceOf(const std::function<void()>& body) {
  trace::Start();
  body();
  trace::Stop();
  return trace::CollectEvents();
}

TEST(Trace, InactiveScopesRecordNothing) {
  trace::Start();
  trace::Stop();
  EXPECT_FALSE(trace::Active());
  { AUTOCTS_TRACE_SCOPE("ignored"); }
  EXPECT_EQ(trace::EventCount(), 0);
  EXPECT_TRUE(trace::CollectEvents().empty());
  EXPECT_TRUE(trace::AggregateOps().empty());
  EXPECT_EQ(trace::Coverage("ignored"), 0.0);
}

TEST(Trace, NestedSpansTelescope) {
  const std::vector<trace::SpanEvent> events = TraceOf([] {
    AUTOCTS_TRACE_SCOPE("root");
    {
      AUTOCTS_TRACE_SCOPE("child_a");
      { AUTOCTS_TRACE_SCOPE("grandchild"); }
    }
    { AUTOCTS_TRACE_SCOPE("child_b"); }
  });
  ASSERT_EQ(events.size(), 4u);
  // Parents precede children in the sorted stream.
  EXPECT_STREQ(events[0].name, "root");
  EXPECT_STREQ(events[1].name, "child_a");
  EXPECT_STREQ(events[2].name, "grandchild");
  EXPECT_STREQ(events[3].name, "child_b");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 2);
  EXPECT_EQ(events[3].depth, 1);

  // Containment: every child interval lies inside its parent's.
  for (int child : {1, 3}) {
    EXPECT_GE(events[child].start_ns, events[0].start_ns);
    EXPECT_LE(events[child].start_ns + events[child].duration_ns,
              events[0].start_ns + events[0].duration_ns);
  }

  // Telescoping self times: the root's inclusive duration equals the sum
  // of self times over the whole tree, exactly (integer nanoseconds).
  int64_t self_sum = 0;
  for (const trace::SpanEvent& event : events) self_sum += event.self_ns;
  EXPECT_EQ(self_sum, events[0].duration_ns);
  // And per-node: self = duration - direct children's durations.
  EXPECT_EQ(events[0].self_ns, events[0].duration_ns -
                                   events[1].duration_ns -
                                   events[3].duration_ns);
  EXPECT_EQ(events[1].self_ns,
            events[1].duration_ns - events[2].duration_ns);
  EXPECT_EQ(events[2].self_ns, events[2].duration_ns);
}

TEST(Trace, AggregatesAreExactAndSortedBySelfTime) {
  trace::Start();
  for (int i = 0; i < 7; ++i) { AUTOCTS_TRACE_SCOPE("op_a"); }
  for (int i = 0; i < 3; ++i) { AUTOCTS_TRACE_SCOPE("op_b"); }
  { trace::Scope backward("op_a", /*backward=*/true); }
  trace::Stop();

  std::map<std::string, int64_t> calls;
  for (const trace::OpStat& stat : trace::AggregateOps()) {
    calls[stat.name] = stat.calls;
    EXPECT_GE(stat.total_ns, stat.self_ns);
    EXPECT_GE(stat.self_ns, 0);
  }
  EXPECT_EQ(calls["op_a"], 7);
  EXPECT_EQ(calls["op_b"], 3);
  // Backward spans aggregate under a distinct ".bwd" key.
  EXPECT_EQ(calls["op_a.bwd"], 1);

  const std::vector<trace::OpStat> stats = trace::AggregateOps();
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_GE(stats[i - 1].self_ns, stats[i].self_ns);
  }
}

TEST(Trace, RingOverflowDropsOldestButKeepsAggregatesExact) {
  trace::SetRingCapacity(16);
  trace::Start();
  for (int i = 0; i < 100; ++i) { AUTOCTS_TRACE_SCOPE("spin"); }
  trace::Stop();

  EXPECT_EQ(trace::EventCount(), 16);
  EXPECT_EQ(trace::DroppedEvents(), 84);
  EXPECT_EQ(trace::CollectEvents().size(), 16u);
  // Aggregates never drop.
  const std::vector<trace::OpStat> stats = trace::AggregateOps();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, 100);
  trace::SetRingCapacity(1 << 16);
}

TEST(Trace, StartClearsPreviousCollection) {
  trace::Start();
  { AUTOCTS_TRACE_SCOPE("old"); }
  trace::Stop();
  ASSERT_EQ(trace::EventCount(), 1);
  trace::Start();
  trace::Stop();
  EXPECT_EQ(trace::EventCount(), 0);
  EXPECT_TRUE(trace::AggregateOps().empty());
}

TEST(Trace, ChromeJsonIsWellFormedAndComplete) {
  trace::Start();
  {
    AUTOCTS_TRACE_SCOPE("outer \"quoted\"");
    { AUTOCTS_TRACE_SCOPE("inner"); }
  }
  trace::Stop();
  const std::string json = trace::ToChromeTracingJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  // One "X" complete event per retained span.
  size_t complete_events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, 2u);
  // Braces and brackets balance (no truncated records).
  int braces = 0;
  int brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Trace, WritersProduceFiles) {
  trace::Start();
  { AUTOCTS_TRACE_SCOPE("write_me"); }
  trace::Stop();
  const std::string json_path = TempPath("writer.json");
  const std::string csv_path = TempPath("writer.csv");
  ASSERT_TRUE(trace::WriteChromeTrace(json_path));
  ASSERT_TRUE(trace::WriteAggregateCsv(csv_path));
  StatusOr<std::string> csv = ReadFileToString(csv_path);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv.value().rfind("op,calls,total_ns,self_ns\n", 0), 0u);
  EXPECT_NE(csv.value().find("write_me,1,"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

// The main-thread span-name sequence for a fixed tiny search is a golden
// trace: it must be exactly reproducible run-over-run. Worker-pool spans
// ("pool/...") are scheduling-dependent and excluded by construction.
std::vector<std::string> MainThreadSpanNames(const SearchOptions& options,
                                             const PreparedData& data) {
  trace::SetRingCapacity(1 << 20);
  SearchOptions traced = options;
  // No trace_path: drive the tracer directly so the event stream stays in
  // memory for inspection.
  trace::Start();
  SearchResult result;
  {
    AUTOCTS_TRACE_SCOPE("search");
    result = JointSearcher(traced).Search(data);
  }
  trace::Stop();
  EXPECT_GT(result.final_validation_loss, 0.0);
  std::vector<std::string> names;
  for (const trace::SpanEvent& event : trace::CollectEvents()) {
    if (event.tid != 0) continue;  // worker threads are not golden
    std::string name = event.name;
    if (name.rfind("pool/", 0) == 0) continue;
    names.push_back(event.backward ? name + ".bwd" : name);
  }
  return names;
}

TEST(Trace, GoldenMainThreadSequenceIsDeterministic) {
  const PreparedData data = TinyData();
  SearchOptions options = TinyOptions();
  options.epochs = 1;
  options.max_batches_per_epoch = 2;

  const std::vector<std::string> first = MainThreadSpanNames(options, data);
  const std::vector<std::string> second = MainThreadSpanNames(options, data);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Structural golden properties of the stream: the fixture spans appear,
  // forward ops have matching backward spans, and the step count is right.
  std::map<std::string, int64_t> calls;
  for (const std::string& name : first) ++calls[name];
  EXPECT_EQ(calls["search/step"], 2);
  EXPECT_EQ(calls["search/derive"], 1);
  EXPECT_GE(calls["search/setup"], 1);
  EXPECT_GT(calls["matmul"], 0);
  EXPECT_GT(calls["matmul.bwd"], 0);
  EXPECT_GT(calls["adam/step"], 0);
  EXPECT_GT(calls["data/get_batch"], 0);
  EXPECT_EQ(calls["unlabeled"], 0);
  trace::SetRingCapacity(1 << 16);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, InstrumentBasics) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("steps");
  counter->Increment();
  counter->Increment(4);
  EXPECT_EQ(counter->value(), 5);
  EXPECT_EQ(registry.GetCounter("steps"), counter);

  obs::Gauge* gauge = registry.GetGauge("loss");
  gauge->Set(0.25);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.25);

  obs::Histogram* histogram = registry.GetHistogram("norm", {1.0, 10.0});
  histogram->Observe(0.5);
  histogram->Observe(5.0);
  histogram->Observe(50.0);
  EXPECT_EQ(histogram->count(), 3);
  EXPECT_DOUBLE_EQ(histogram->sum(), 55.5);
  EXPECT_DOUBLE_EQ(histogram->min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram->max(), 50.0);
  ASSERT_EQ(histogram->bucket_counts().size(), 3u);
  EXPECT_EQ(histogram->bucket_counts()[0], 1);
  EXPECT_EQ(histogram->bucket_counts()[1], 1);
  EXPECT_EQ(histogram->bucket_counts()[2], 1);
}

TEST(MetricsRegistry, CsvShapeAndIntegerFormatting) {
  MetricsRegistry registry;
  registry.GetCounter("n");
  registry.GetGauge("x");
  registry.GetHistogram("h", {2.0});
  registry.GetCounter("n")->Increment(3);
  registry.GetGauge("x")->Set(1.5);
  registry.GetHistogram("h", {})->Observe(1.0);
  registry.AppendRow("step", 0, 7);

  const std::vector<std::string> columns = registry.ColumnNames();
  const std::vector<std::string> expected = {
      "n", "x", "h.count", "h.sum", "h.min", "h.max", "h.le_2", "h.le_inf"};
  EXPECT_EQ(columns, expected);

  const std::string csv = registry.ToCsv();
  EXPECT_EQ(csv,
            "kind,epoch,step,n,x,h.count,h.sum,h.min,h.max,h.le_2,h.le_inf\n"
            "step,0,7,3,1.5,1,1,1,1,1,0\n");

  const std::string jsonl = registry.ToJsonLines();
  EXPECT_NE(jsonl.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"x\":1.5"), std::string::npos);
}

TEST(MetricsRegistry, EncodeDecodeRoundTripsBitExactly) {
  MetricsRegistry registry;
  registry.GetCounter("steps")->Increment(41);
  registry.GetGauge("loss")->Set(0.1);  // not exactly representable
  registry.GetGauge("tau")->Set(5.0 * 0.9 * 0.9);
  obs::Histogram* histogram = registry.GetHistogram("norm", {0.5, 1.0});
  histogram->Observe(0.3);
  histogram->Observe(0.7);
  registry.AppendRow("step", 0, 1);
  registry.GetCounter("steps")->Increment();
  registry.AppendRow("epoch", 0, 2);

  const std::string encoded = registry.EncodeState();
  MetricsRegistry restored;
  ASSERT_TRUE(restored.DecodeState(encoded).ok());
  // Bit-exact: the restored registry re-encodes to the same bytes and
  // produces the same CSV.
  EXPECT_EQ(restored.EncodeState(), encoded);
  EXPECT_EQ(restored.ToCsv(), registry.ToCsv());
  EXPECT_EQ(restored.GetCounter("steps")->value(), 42);
  EXPECT_EQ(restored.GetGauge("loss")->value(), 0.1);
}

TEST(MetricsRegistry, DecodeRejectsCorruptionAndEmptiesRegistry) {
  MetricsRegistry source;
  source.GetCounter("a")->Increment(2);
  source.GetGauge("b")->Set(3.5);
  source.AppendRow("step", 1, 2);
  const std::string encoded = source.EncodeState();

  // Truncation at every line boundary after the header must fail cleanly.
  std::vector<size_t> newlines;
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] == '\n') newlines.push_back(i);
  }
  ASSERT_GE(newlines.size(), 2u);
  for (size_t cut = 0; cut + 1 < newlines.size(); ++cut) {
    MetricsRegistry target;
    const std::string truncated =
        encoded.substr(0, newlines[cut] + 1) + "counter broken";
    EXPECT_FALSE(target.DecodeState(truncated).ok());
    EXPECT_TRUE(target.ColumnNames().empty());
    EXPECT_TRUE(target.rows().empty());
  }
  MetricsRegistry target;
  EXPECT_FALSE(target.DecodeState("not a metrics state").ok());
  EXPECT_FALSE(target.DecodeState("obsv 2\n").ok());
  EXPECT_TRUE(target.DecodeState("").ok());  // empty = empty registry
}

TEST(MetricsRegistry, StripWallColumnsDropsOnlyWallColumns) {
  MetricsRegistry registry;
  registry.GetGauge("loss")->Set(1.0);
  registry.GetGauge("wall/elapsed_sec")->Set(123.0);
  registry.GetCounter("steps")->Increment();
  registry.AppendRow("step", 0, 0);
  const std::string stripped =
      MetricsRegistry::StripWallColumns(registry.ToCsv());
  EXPECT_EQ(stripped,
            "kind,epoch,step,loss,steps\n"
            "step,0,0,1,1\n");
}

TEST(MetricsRegistry, WriteSinksProducesBothFiles) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(2.0);
  registry.AppendRow("epoch", 0, 0);
  const std::string base = TempPath("sinks");
  RemoveSinkFiles(base);
  ASSERT_TRUE(registry.WriteSinks(base).ok());
  StatusOr<std::string> csv = ReadFileToString(base + ".csv");
  StatusOr<std::string> jsonl = ReadFileToString(base + ".jsonl");
  ASSERT_TRUE(csv.ok());
  ASSERT_TRUE(jsonl.ok());
  EXPECT_EQ(csv.value(), registry.ToCsv());
  EXPECT_EQ(jsonl.value(), registry.ToJsonLines());
  RemoveSinkFiles(base);
}

// ---------------------------------------------------------------------------
// Search integration: bit-transparency, coverage, recorded content.

TEST(Observability, SearchMetricsRecordExpectedRows) {
  const PreparedData data = TinyData();
  SearchOptions options = TinyOptions();
  MetricsRegistry registry;
  options.metrics = &registry;
  options.metrics_every_n_batches = 2;
  const SearchResult result = JointSearcher(options).Search(data);

  // 2 epochs x 4 steps: 4 "step" rows (every 2nd healthy batch) and one
  // "epoch" row per epoch.
  int64_t step_rows = 0;
  int64_t epoch_rows = 0;
  for (const MetricsRegistry::Row& row : registry.rows()) {
    step_rows += row.kind == "step";
    epoch_rows += row.kind == "epoch";
  }
  EXPECT_EQ(step_rows, 4);
  EXPECT_EQ(epoch_rows, 2);
  EXPECT_EQ(registry.GetCounter(core::kMetricStepsTotal)->value(), 8);
  EXPECT_EQ(registry.GetCounter(core::kMetricSkippedSteps)->value(), 0);

  // The final epoch row's val_loss_epoch equals the search result's final
  // validation loss bit-for-bit (same accumulator, read not recomputed).
  const std::vector<std::string> columns = registry.ColumnNames();
  size_t val_loss_column = columns.size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == core::kMetricValLossEpoch) val_loss_column = i;
  }
  ASSERT_LT(val_loss_column, columns.size());
  const MetricsRegistry::Row& last = registry.rows().back();
  EXPECT_EQ(last.kind, "epoch");
  EXPECT_EQ(last.values[val_loss_column], result.final_validation_loss);

  // τ decayed from its initial value and the entropies are positive for a
  // freshly-initialized (near-uniform) architecture.
  size_t tau_column = 0;
  size_t alpha_column = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == core::kMetricTau) tau_column = i;
    if (columns[i] == core::kMetricAlphaEntropy) alpha_column = i;
  }
  EXPECT_LT(last.values[tau_column], core::kTauInit);
  EXPECT_GT(last.values[alpha_column], 0.0);
}

TEST(Observability, EnabledObservabilityIsBitTransparentAcrossThreads) {
  const PreparedData data = TinyData();
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    // Reference run: no tracer, no metrics.
    const SearchResult plain = JointSearcher(TinyOptions()).Search(data);

    // Instrumented run: tracer + metrics registry + file sinks, all on.
    SearchOptions instrumented = TinyOptions();
    MetricsRegistry registry;
    instrumented.metrics = &registry;
    instrumented.metrics_path = TempPath("transparency");
    instrumented.metrics_every_n_batches = 1;
    instrumented.trace_path = TempPath("transparency.trace.json");
    RemoveSinkFiles(instrumented.metrics_path);
    const SearchResult traced = JointSearcher(instrumented).Search(data);

    // Bit-identical outcome.
    EXPECT_EQ(plain.genotype, traced.genotype);
    EXPECT_EQ(plain.final_validation_loss, traced.final_validation_loss);

    // The aggregate op table accounts for >= 90% of the search wall time
    // (acceptance criterion; in practice it is > 99%).
    EXPECT_GE(trace::Coverage("search"), 0.9);

    // All four output files landed.
    for (const std::string& path :
         {instrumented.metrics_path + ".csv",
          instrumented.metrics_path + ".jsonl", instrumented.trace_path,
          instrumented.trace_path + ".ops.csv"}) {
      EXPECT_TRUE(FileExists(path)) << path;
    }
    RemoveSinkFiles(instrumented.metrics_path);
    std::remove(instrumented.trace_path.c_str());
    std::remove((instrumented.trace_path + ".ops.csv").c_str());
  }
  SetNumThreads(1);
}

TEST(Observability, TrainerMetricsAndTraceAreBitTransparent) {
  const PreparedData data = TinyData();
  models::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.max_batches_per_epoch = 3;
  config.early_stop_patience = 1;

  auto make_model = [&] {
    return models::CreateBaseline("STGCN",
                                  models::MakeModelContext(data, 8, 5));
  };

  auto plain_model = make_model();
  const models::EvalResult plain =
      models::TrainAndEvaluate(plain_model.get(), data, config);

  models::TrainConfig instrumented = config;
  MetricsRegistry registry;
  instrumented.metrics = &registry;
  instrumented.metrics_every_n_batches = 1;
  instrumented.trace_path = TempPath("trainer.trace.json");
  auto traced_model = make_model();
  const models::EvalResult traced =
      models::TrainAndEvaluate(traced_model.get(), data, instrumented);

  EXPECT_EQ(plain.final_train_loss, traced.final_train_loss);
  EXPECT_EQ(plain.average.mae, traced.average.mae);
  EXPECT_EQ(plain.epochs_run, traced.epochs_run);

  int64_t epoch_rows = 0;
  for (const MetricsRegistry::Row& row : registry.rows()) {
    epoch_rows += row.kind == "epoch";
  }
  EXPECT_EQ(epoch_rows, traced.epochs_run);
  EXPECT_GT(registry.GetCounter("batches_total")->value(), 0);
  std::remove(instrumented.trace_path.c_str());
  std::remove((instrumented.trace_path + ".ops.csv").c_str());
}

}  // namespace
}  // namespace autocts
