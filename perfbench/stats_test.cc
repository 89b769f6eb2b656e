// Unit tests for the benchmark's own statistics (stats.h).
//   cmake --build .bench_build && ctest --test-dir .bench_build

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, QuantileInterpolatesLinearly) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);  // 1..11
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 10);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 11);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.25), 2.5);
}

TEST(Stats, TailLevelKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(supported_tail_level(10000), 0.999);  // 10 beyond
  EXPECT_DOUBLE_EQ(supported_tail_level(9999), 0.99);
  EXPECT_DOUBLE_EQ(supported_tail_level(1000), 0.99);
  EXPECT_DOUBLE_EQ(supported_tail_level(200), 0.95);
  EXPECT_DOUBLE_EQ(supported_tail_level(100), 0.9);
  EXPECT_DOUBLE_EQ(supported_tail_level(99), 0.75);
  EXPECT_DOUBLE_EQ(supported_tail_level(39), 0.5);  // 9.75 beyond 0.75
  EXPECT_DOUBLE_EQ(supported_tail_level(0), 0.5);
  for (std::size_t n : {40u, 100u, 250u, 5000u, 12345u}) {
    const double level = supported_tail_level(n);
    EXPECT_GE(static_cast<double>(n) * (1 - level) + 1e-9, 10.0) << n;
  }
}

TEST(Stats, GeomeanOfPositiveValues) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(geomean({2, 8, 4}), 4, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({1, 0}), 0);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Stats, ConsecutiveWindowsKeepOrderAndFoldTheRemainder) {
  const auto w = consecutive_windows({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(w[1], (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(w[2], (std::vector<double>{7, 8, 9, 10}));
  EXPECT_EQ(consecutive_windows({1, 2}, 3).size(), 1u);  // never empty
}

TEST(Stats, WindowMedianIgnoresOneNoisyWindow) {
  // Three quiet windows (p90 = 1.1) and one stalled window.
  const std::vector<std::vector<double>> windows = {
      {1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 2},
      {1, 1, 1, 1, 1, 1, 1, 1, 1, 2}, {50, 50, 50, 50, 50, 50, 50, 50, 50, 50}};
  EXPECT_NEAR(median_of_window_quantiles(windows, 0.9), 1.1, 1e-12);
  std::vector<double> pooled;
  for (const auto& w : windows) pooled.insert(pooled.end(), w.begin(), w.end());
  EXPECT_DOUBLE_EQ(quantile(pooled, 0.9), 50);  // the pooled tail is the stall
}

TEST(Stats, OpenLoopLatencyCountsFromTheDueTime) {
  // Due at 1.000 s, sent 30 ms late by a stalled generator, answered
  // 5 ms after sending: the client waited 35 ms, not 5.
  const OpenLoopTiming t{1.000, 1.030, 1.035};
  EXPECT_NEAR(due_latency_ms(t), 35.0, 1e-9);
  EXPECT_NEAR(generator_lag_ms(t), 30.0, 1e-9);
}

TEST(Stats, GeneratorLagIsNeverNegativeAndTakesTheWorst) {
  const OpenLoopTiming early{2.0, 1.999, 2.004};  // sent before due
  EXPECT_DOUBLE_EQ(generator_lag_ms(early), 0.0);
  EXPECT_NEAR(due_latency_ms(early), 4.0, 1e-9);
  const std::vector<OpenLoopTiming> ts = {
      early, {0.5, 0.502, 0.51}, {0.7, 0.712, 0.72}, {0.9, 0.9, 0.91}};
  EXPECT_NEAR(max_generator_lag_ms(ts), 12.0, 1e-9);
  EXPECT_DOUBLE_EQ(max_generator_lag_ms({}), 0.0);
}

}  // namespace
}  // namespace perfbench
