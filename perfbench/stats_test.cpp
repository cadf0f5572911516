// Tests of the benchmark's statistics helpers.
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

// 1, 2, ..., n in shuffled order.
std::vector<double> ramp(int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 1.0);
  for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
    std::swap(xs[i], xs[i + 1]);
  }
  return xs;
}

TEST(Median, OddCountIsTheMiddleValue) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Median, EvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({0.4, 0.2}), 0.3);
}

TEST(Median, IgnoresOneSlowRepetition) {
  EXPECT_DOUBLE_EQ(median({1.0, 1.1, 9.0, 1.05, 0.95}), 1.05);
}

TEST(Median, RejectsNoSamples) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Tail, PicksHighestPercentileWithTenSamplesBeyond) {
  // 337 rounds: p97 has rank 327 and ten samples beyond it; p98 has six.
  const Tail t = tail(ramp(337));
  EXPECT_TRUE(t.qualified);
  EXPECT_DOUBLE_EQ(t.percentile, 97);
  EXPECT_DOUBLE_EQ(t.value, 327);
  EXPECT_EQ(t.samples, 337u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, ExactBoundaryCountsAsEnough) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only one.
  const Tail t = tail(ramp(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99);
  EXPECT_DOUBLE_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, ReachesFractionalPercentilesOnLargeSamples) {
  const Tail t = tail(ramp(100000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.99);
  EXPECT_DOUBLE_EQ(t.value, 99990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100000u);
}

TEST(Tail, TooFewSamplesFallBackToUnqualifiedMedianRank) {
  const Tail t = tail(ramp(15));
  EXPECT_FALSE(t.qualified);
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_DOUBLE_EQ(t.value, 8);
  EXPECT_EQ(t.beyond, 7u);
}

TEST(Tail, SmallestQualifyingSampleIsTwenty) {
  EXPECT_FALSE(tail(ramp(19)).qualified);
  const Tail t = tail(ramp(20));
  EXPECT_TRUE(t.qualified);
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, RejectsNoSamples) {
  EXPECT_THROW(tail({}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
