// Statistics helpers of the benchmark: the median over repetitions and
// the tail rule every timing is reported with.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Median of `xs` (mean of the two middle values for an even count).
// Throws std::invalid_argument when `xs` is empty.
double median(std::vector<double> xs);

// Samples a tail must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

// The highest percentile of `xs` that still has at least kMinBeyond
// samples above it, so a tail is never read off a handful of outliers.
// Candidate percentiles are the integers 50..99 followed by 99.9, 99.99
// and 99.999; the value is the nearest-rank sample
// sorted[ceil(p/100 * n) - 1], and `beyond` is n minus that rank. When not
// even p50 has kMinBeyond samples beyond it, p50 is returned with its
// (short) beyond count and `qualified` false.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool qualified = false;
};
Tail tail(std::vector<double> xs);

}  // namespace perfbench
