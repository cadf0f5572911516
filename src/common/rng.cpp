#include "common/rng.h"

#include <cassert>
#include <numeric>

namespace muri {

Mt64Substream::result_type Mt64Substream::tail_draw() {
  if (tail_ == nullptr) {
    tail_ = std::make_unique<Engine>(seed_);
    tail_->discard(kLazyDraws);
  }
  return (*tail_)();
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  assert(!weights.empty());
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(sum > 0.0);
  double x = uniform() * sum;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace muri
