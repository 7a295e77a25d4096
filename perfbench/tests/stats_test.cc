#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(MedianTest, OddEvenSingleAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({7.5}), 7.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(QuietestStretchTest, PicksTheStretchWithTheLowestMedian) {
  // Eighteen samples cut into six stretches of three; the host slowed down
  // for all but the fourth.
  const std::vector<double> samples = {9, 9, 9, 8, 9, 9, 9, 8, 9,
                                       5, 6, 4, 9, 9, 8, 9, 9, 9};
  const std::optional<Stretch> quiet = QuietestStretch(samples);
  ASSERT_TRUE(quiet.has_value());
  EXPECT_EQ(quiet->count, 6u);
  EXPECT_EQ(quiet->begin, 9u);
  EXPECT_EQ(quiet->end, 12u);
  EXPECT_EQ(quiet->median, 5.0);
  EXPECT_EQ(DescribeStretch("run_ms", "ms", samples, *quiet),
            "run_ms = 5 ms (p50 of stretch 4 of 6, n=3 of 18; whole run p50 "
            "9)");
}

TEST(QuietestStretchTest, FewSamplesMakeFewerStretches) {
  // Seven samples make two stretches of at least three: [0, 3) and [3, 7).
  const std::optional<Stretch> quiet =
      QuietestStretch({6, 6, 6, 1, 2, 9, 9});
  ASSERT_TRUE(quiet.has_value());
  EXPECT_EQ(quiet->count, 2u);
  EXPECT_EQ(quiet->begin, 3u);
  EXPECT_EQ(quiet->end, 7u);
  EXPECT_EQ(quiet->median, 5.5);
  // Many samples make at most kQuietStretches stretches.
  EXPECT_EQ(QuietestStretch(OneTo(1000))->count, kQuietStretches);
  EXPECT_EQ(QuietestStretch(OneTo(1000))->end, 1000 / kQuietStretches);
  // Under three samples the whole run is one stretch.
  EXPECT_EQ(QuietestStretch({3, 1})->median, 2.0);
  EXPECT_FALSE(QuietestStretch({}).has_value());
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  // p99 of 1,000 samples leaves exactly ten beyond rank 990.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(TailPercentile(OneTo(1000), 0.99), 990.0);
  // One sample fewer and only nine lie beyond: refused.
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(TailPercentile(OneTo(999), 0.99).has_value());
  // p90 needs 100.
  EXPECT_EQ(TailPercentile(OneTo(100), 0.90), 90.0);
  EXPECT_FALSE(TailPercentile(OneTo(99), 0.90).has_value());
}

TEST(TailPercentileTest, IndependentOfSampleOrder) {
  std::vector<double> values = OneTo(2000);
  std::mt19937 rng(7);
  std::shuffle(values.begin(), values.end(), rng);
  EXPECT_EQ(TailPercentile(values, 0.99), 1980.0);
  EXPECT_EQ(TailPercentile(values, 0.5), 1000.0);
}

TEST(TailPercentileTest, RejectsOutOfRangeQuantiles) {
  EXPECT_FALSE(TailPercentile(OneTo(5000), 0.0).has_value());
  EXPECT_FALSE(TailPercentile(OneTo(5000), 1.0).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(DescribeTimingTest, AlwaysPrintsTheSampleCount) {
  EXPECT_EQ(DescribeTiming("resume_ms", "ms", {1.0, 2.0, 3.0}, 0.5),
            "resume_ms = 2 ms (p50, n=3)");
  EXPECT_EQ(DescribeTiming("short_latency_p99_ms", "ms", OneTo(1000), 0.99),
            "short_latency_p99_ms = 990 ms (p99, n=1000)");
  EXPECT_EQ(DescribeTiming("durable_latency_p90_ms", "ms", OneTo(40), 0.90),
            "durable_latency_p90_ms refused: p90 of n=40 leaves 4 samples "
            "beyond it (needs 10)");
  EXPECT_EQ(DescribeTiming("x_ms", "ms", {}, 0.5), "x_ms refused: no samples");
}

}  // namespace
}  // namespace perfbench
