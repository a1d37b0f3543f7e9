#include "report.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"

namespace autocts::perfbench {
namespace {

std::vector<double> OneTo(int64_t n) {
  std::vector<double> values;
  for (int64_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailPercentileTest, ReportsP99OnlyWithTenSamplesBeyond) {
  const Tail tail = TailPercentile(OneTo(1000));
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);  // ten samples (991..1000) lie beyond
  EXPECT_EQ(tail.count, 1000);

  const Tail smaller = TailPercentile(OneTo(999));
  EXPECT_EQ(smaller.percentile, 98.0);
  EXPECT_EQ(smaller.count, 999);
}

TEST(TailPercentileTest, FallsBackToLowerPercentiles) {
  const Tail p95 = TailPercentile(OneTo(200));
  EXPECT_EQ(p95.percentile, 95.0);
  EXPECT_EQ(p95.value, 190.0);

  const Tail p90 = TailPercentile(OneTo(100), 99.0);
  EXPECT_EQ(p90.percentile, 90.0);
  EXPECT_EQ(p90.value, 90.0);

  // Never above the requested ceiling.
  EXPECT_EQ(TailPercentile(OneTo(5000), 50.0).percentile, 50.0);
}

TEST(TailPercentileTest, TooFewSamplesReportTheMaximum) {
  const Tail tail = TailPercentile({3.0, 1.0, 2.0});
  EXPECT_EQ(tail.percentile, 100.0);
  EXPECT_EQ(tail.value, 3.0);
  EXPECT_EQ(tail.count, 3);

  const Tail empty = TailPercentile({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(HistogramPercentileTest, InterpolatesInsideTheBucket) {
  obs::Histogram histogram("latency", {1.0, 5.0, 10.0});
  for (int i = 0; i < 50; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 50; ++i) histogram.Observe(3.0);
  // The first bucket spans [min, 1]: its 50 samples are spread over it.
  EXPECT_NEAR(HistogramPercentile(histogram, 25.0), 0.75, 1e-12);
  EXPECT_NEAR(HistogramPercentile(histogram, 50.0), 1.0, 1e-12);
  // 75th of 100 falls halfway through the (1, 5] bucket.
  EXPECT_NEAR(HistogramPercentile(histogram, 75.0), 3.0, 1e-12);
  EXPECT_EQ(HistogramPercentile(obs::Histogram("empty", {1.0}), 50.0), 0.0);
}

TEST(MetricNameTest, AcceptsOnlyTheDocumentedAlphabet) {
  EXPECT_TRUE(ValidMetricName("latency_p99_ms"));
  EXPECT_TRUE(ValidMetricName("latency_p99_ms.low"));
  EXPECT_TRUE(ValidMetricName("serve.queue_wait_ms.p99"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(ResultSchemaTest, PrintsExactlyTheRecordKeys) {
  Result result;
  result.correct = true;
  result.attempted = 1000;
  result.failed = 0;
  result.metrics = {{"setup_s", 0.8127}, {"latency_ms", 1.25}};
  ASSERT_TRUE(ValidateResult(result).ok());
  EXPECT_EQ(ResultToJson(result),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": 1.25, \"setup_s\": "
            "0.81269999999999998}}");
}

TEST(ResultSchemaTest, RejectsMalformedResults) {
  Result result;
  result.attempted = 1;
  result.metrics = {{"ok", 1.0}};
  EXPECT_TRUE(ValidateResult(result).ok());

  Result bad_name = result;
  bad_name.metrics = {{"bad name", 1.0}};
  EXPECT_FALSE(ValidateResult(bad_name).ok());

  Result not_finite = result;
  not_finite.metrics["ok"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateResult(not_finite).ok());

  Result nothing_attempted = result;
  nothing_attempted.attempted = 0;
  EXPECT_FALSE(ValidateResult(nothing_attempted).ok());

  Result too_many_failed = result;
  too_many_failed.failed = 2;
  EXPECT_FALSE(ValidateResult(too_many_failed).ok());
}

}  // namespace
}  // namespace autocts::perfbench
