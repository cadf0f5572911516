#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace muri {
namespace {

TEST(Types, ResourceNamesRoundTrip) {
  for (Resource r : kAllResources) {
    Resource parsed{};
    ASSERT_TRUE(parse_resource(to_string(r), parsed));
    EXPECT_EQ(parsed, r);
  }
}

TEST(Types, ParseRejectsUnknown) {
  Resource r{};
  EXPECT_FALSE(parse_resource("tpu", r));
  EXPECT_FALSE(parse_resource("", r));
  EXPECT_FALSE(parse_resource("GPU", r));  // case-sensitive
}

TEST(Types, TotalSumsAllResources) {
  ResourceVector v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(total(v), 10.0);
}

TEST(Types, BottleneckPicksLargest) {
  ResourceVector v = {0.1, 0.5, 0.3, 0.2};
  EXPECT_EQ(bottleneck(v), Resource::kCpu);
}

TEST(Types, BottleneckTieBreaksToFirst) {
  ResourceVector v = {0.5, 0.5, 0.5, 0.5};
  EXPECT_EQ(bottleneck(v), Resource::kStorage);
}

TEST(Types, ToStringFormatsVector) {
  ResourceVector v = {1, 2, 3, 4};
  const std::string s = to_string(v);
  EXPECT_NE(s.find("storage=1"), std::string::npos);
  EXPECT_NE(s.find("network=4"), std::string::npos);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo = saw_lo || x == 0;
    saw_hi = saw_hi || x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);  // ~3:1
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.6);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng forked = a.fork();
  // Forked stream must not replay the parent stream.
  Rng fresh(5);
  fresh.engine()();  // consume the draw used by fork
  EXPECT_NE(forked.uniform(), a.uniform());
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(rng.lognormal(1.0, 2.0), 0.0);
  }
}

// Seeds the engine keys per-job fault substreams with (its default
// fault_seed, 64 job ids), plus 0, 1 and 2^64-1.
std::vector<std::uint64_t> substream_test_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  for (std::uint64_t id = 0; id < 64; ++id) {
    seeds.push_back(substream_seed(1337, id));
  }
  return seeds;
}

TEST(Mt64Substream, RawDrawsEqualMt19937_64) {
  for (const std::uint64_t seed : substream_test_seeds()) {
    Mt64Substream stream(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(stream(), ref()) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(Mt64Substream, TenThousandthDrawIsTheStandardsValue) {
  // The standard fixes this output of a default-seeded mt19937_64.
  Mt64Substream stream;
  for (int i = 0; i < 9999; ++i) stream();
  EXPECT_EQ(stream(), 9981545732273789042ULL);
}

TEST(Mt64Substream, ExponentialDrawsEqualAcrossDraw156) {
  // One 64-bit word per double draw, so 400 draws cross the switch from
  // the seed cursors to the full engine at draw 156.
  std::exponential_distribution<double> d(1.0 / 7200);
  for (const std::uint64_t seed : substream_test_seeds()) {
    Mt64Substream stream(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(d(stream), d(ref)) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(Mt64Substream, StreamsMovedByVectorGrowthContinue) {
  // Stream i takes (7 i) mod 320 draws before the next push_back, so the
  // reallocations move streams that are fresh, part way through the seed
  // cursors and past the switch to the full engine.
  std::vector<Mt64Substream> streams;
  std::vector<std::mt19937_64> refs;
  std::vector<const Mt64Substream*> buffers;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t seed = substream_seed(7, i);
    streams.emplace_back(seed);
    refs.emplace_back(seed);
    if (buffers.empty() || buffers.back() != streams.data()) {
      buffers.push_back(streams.data());
    }
    for (std::uint64_t k = 0; k < (7 * i) % 320; ++k) {
      ASSERT_EQ(streams[i](), refs[i]()) << "stream " << i << ", draw " << k;
    }
  }
  EXPECT_GE(buffers.size(), 5U);  // the vector reallocated along the way
  // A stream replaced by move assignment starts over.
  streams[25] = Mt64Substream(substream_seed(7, 25));
  refs[25] = std::mt19937_64(substream_seed(7, 25));
  for (size_t i = 0; i < streams.size(); ++i) {
    for (int k = 0; k < 200; ++k) {
      ASSERT_EQ(streams[i](), refs[i]()) << "stream " << i << ", draw " << k;
    }
  }
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 10), 1.4);
}

TEST(Stats, PercentileHandlesUnsortedAndEmpty) {
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 100), 5.0);
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(min_of({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(max_of({3, 1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(min_of({}), 0.0);
  EXPECT_DOUBLE_EQ(max_of({}), 0.0);
}

TEST(Stats, TimeWeightedAverageBasic) {
  TimeWeightedAverage avg;
  avg.observe(0, 1.0);
  avg.observe(10, 3.0);  // value 1.0 held for 10s
  EXPECT_DOUBLE_EQ(avg.finalize(20), (1.0 * 10 + 3.0 * 10) / 20);
}

TEST(Stats, TimeWeightedAverageEmpty) {
  TimeWeightedAverage avg;
  EXPECT_DOUBLE_EQ(avg.finalize(100), 0.0);
}

TEST(Stats, TimeWeightedValueAtDoesNotMutate) {
  TimeWeightedAverage avg;
  avg.observe(0, 2.0);
  EXPECT_DOUBLE_EQ(avg.value_at(10), 2.0);
  EXPECT_DOUBLE_EQ(avg.value_at(10), 2.0);
  EXPECT_DOUBLE_EQ(avg.finalize(10), 2.0);
}

TEST(Stats, SeriesRecorderKeepsOrderAndThins) {
  SeriesRecorder rec(8);
  for (int i = 0; i < 1000; ++i) {
    rec.record(i, i * 2.0);
  }
  const auto& pts = rec.points();
  ASSERT_FALSE(pts.empty());
  EXPECT_LE(pts.size(), 8u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].time, pts[i].time);
  }
}

}  // namespace
}  // namespace muri
