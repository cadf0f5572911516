#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  const double lower = *std::max_element(xs.begin(), xs.begin() + mid);
  return (lower + upper) / 2;
}

namespace {

// Nearest rank (1-based) of percentile p among n samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::vector<double> candidate_percentiles() {
  std::vector<double> ps;
  for (int p = 50; p <= 99; ++p) ps.push_back(p);
  ps.insert(ps.end(), {99.9, 99.99, 99.999});
  return ps;
}

}  // namespace

Tail tail(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  Tail out;
  out.samples = n;
  out.percentile = 50;
  out.beyond = n - nearest_rank(50, n);
  out.value = xs[nearest_rank(50, n) - 1];
  for (const double p : candidate_percentiles()) {
    const std::size_t rank = nearest_rank(p, n);
    if (n - rank < kMinBeyond) break;
    out.percentile = p;
    out.value = xs[rank - 1];
    out.beyond = n - rank;
    out.qualified = true;
  }
  return out;
}

}  // namespace perfbench
