// Tests of the benchmark's statistics code (perfbench/stats.h) and of the
// scaling of segment times by the host's speed (perfbench/runner.h).
// Run with: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "runner.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Median, OddCountIsMiddleSample) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Median, EvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Median, EmptyIsZero) { EXPECT_DOUBLE_EQ(median({}), 0.0); }

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, SamplesBeyondCountsWhatLiesAboveTheRank) {
  EXPECT_EQ(samples_beyond(100, 99.0), 1u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 50.0), 500u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(19), 0.0);   // p50 has 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(20), 50.0);  // p50 has 10 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 90.0);  // p99 has 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(b.q1, 0.5);
  EXPECT_DOUBLE_EQ(b.q2, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.5);
  const Quartiles c = quartiles({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(c.q1, 15.0);
  EXPECT_DOUBLE_EQ(c.q2, 30.0);
  EXPECT_DOUBLE_EQ(c.q3, 45.0);
}

TEST(Quartiles, IqrShareIsSpreadOverMedian) {
  EXPECT_DOUBLE_EQ(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(iqr_share({4.0, 4.0, 4.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(iqr_share({4.0}), 0.0);
}

TEST(Segments, SumsTheMedianRoundOfEachSegment) {
  EXPECT_DOUBLE_EQ(sum_of_medians({{3.0, 4.0, 1.0}, {2.0, 5.0, 5.0}}), 8.0);
  EXPECT_DOUBLE_EQ(sum_of_medians({{7.0}, {}}), 7.0);
  EXPECT_DOUBLE_EQ(sum_of_medians({}), 0.0);
}

TEST(Segments, ScaledByTheReferenceSamplesAroundThem) {
  // Two segments of 10 ms each; the host read a slowdown of 1 before the
  // first, 2 between them and 3 after the second.
  ItemTimes times(1);
  const double slowdowns[] = {1.0, 2.0, 3.0};
  times.add(0, {10.0, 10.0}, slowdowns);
  EXPECT_DOUBLE_EQ(times.ms[0][0][0], 10.0 / 1.5);
  EXPECT_DOUBLE_EQ(times.ms[0][1][0], 10.0 / 2.5);
  // Without samples (a traced round) the times stay as measured.
  times.add(0, {12.0, 8.0});
  EXPECT_DOUBLE_EQ(times.ms[0][1][1], 8.0);
  EXPECT_DOUBLE_EQ(times.raw_total_ms[0][1], 20.0);
  EXPECT_DOUBLE_EQ(times.wall_s(), ((10.0 / 1.5 + 12.0) / 2 +
                                    (10.0 / 2.5 + 8.0) / 2) / 1e3);
}

TEST(Outcomes, FailuresCountAsAttemptedAndMissEveryLimit) {
  Outcomes o;
  o.ok(1.0);
  o.ok(2.0);
  o.failed();
  EXPECT_EQ(o.attempted(), 3);
  EXPECT_EQ(o.failures(), 1);
  const std::vector<double> all = o.all_latencies();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(std::isinf(percentile(all, 99.0)));
  EXPECT_DOUBLE_EQ(median(all), 2.0);
}

}  // namespace
}  // namespace perfbench
