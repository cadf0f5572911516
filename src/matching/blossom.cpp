#include "matching/blossom.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace muri {
namespace detail {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

void BlossomMatcher::reset(int n) {
  n_ = n;
  n_x_ = n;
  stride_ = 2 * n + 1;
  const auto stride = static_cast<size_t>(stride_);
  if (edges_.size() < stride * stride) edges_.resize(stride * stride);
  if (lab_.size() < stride) {
    lab_.resize(stride);
    match_.resize(stride);
    slack_.resize(stride);
    st_.resize(stride);
    pa_.resize(stride);
    s_.resize(stride);
    vis_.resize(stride);
    best_.resize(stride);
    slack_d_.resize(stride);
    flower_.resize(stride);
  }
  const auto real = static_cast<size_t>(n + 1);
  if (weights_.size() < real * real) weights_.resize(real * real);
  std::fill(weights_.begin(),
            weights_.begin() + static_cast<std::ptrdiff_t>(real * real), 0);
  if (flower_from_storage_.size() < stride * static_cast<size_t>(n + 1)) {
    flower_from_storage_.resize(stride * static_cast<size_t>(n + 1));
  }
  // vis_ keeps stamps across calls; restart them long before overflow.
  if (lca_stamp_ > (1 << 30)) {
    std::fill(vis_.begin(), vis_.end(), 0);
    lca_stamp_ = 0;
  }
  for (int u = 0; u <= n_; ++u) {
    Edge* row = &g_(u, 0);
    for (int v = 0; v <= n_; ++v) row[v] = Edge{u, v, 0};
  }
}

void BlossomMatcher::set_weight(int u, int v, std::int64_t w) {
  assert(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v);
  assert(w >= 0);
  g_(u + 1, v + 1).w = w;
  g_(v + 1, u + 1).w = w;
  w_(u + 1, v + 1) = w;
  w_(v + 1, u + 1) = w;
}

// `delta` is edge_delta(g_(u, x)).
void BlossomMatcher::update_slack(int u, int x, std::int64_t delta) {
  if (slack_[static_cast<size_t>(x)] == 0 || delta < slack_delta(x)) {
    slack_[static_cast<size_t>(x)] = u;
    slack_d_[static_cast<size_t>(x)] = delta;
  }
}

void BlossomMatcher::set_slack(int x) {
  slack_[static_cast<size_t>(x)] = 0;
  // Row x: g_(x, u) has the endpoints, weight and slack of g_(u, x).
  const Edge* row = &g_(x, 0);
  for (int u = 1; u <= n_; ++u) {
    if (row[u].w > 0 && st_[static_cast<size_t>(u)] != x &&
        s_[static_cast<size_t>(st_[static_cast<size_t>(u)])] == 0) {
      update_slack(u, x, edge_delta(row[u]));
    }
  }
}

void BlossomMatcher::push_queue(int x) {
  if (x <= n_) {
    queue_.push_back(x);
  } else {
    for (int sub : flower_[static_cast<size_t>(x)]) push_queue(sub);
  }
}

void BlossomMatcher::set_state(int x, int b) {
  st_[static_cast<size_t>(x)] = b;
  if (x > n_) {
    for (int sub : flower_[static_cast<size_t>(x)]) set_state(sub, b);
  }
}

void BlossomMatcher::set_flower_from(int b, int x, int member) {
  if (x <= n_) {
    flower_from_(b, x) = member;
  } else {
    for (int sub : flower_[static_cast<size_t>(x)]) set_flower_from(b, sub, member);
  }
}

int BlossomMatcher::blossom_rotation(int b, int xr) {
  auto& fl = flower_[static_cast<size_t>(b)];
  const int pr =
      static_cast<int>(std::find(fl.begin(), fl.end(), xr) - fl.begin());
  if (pr % 2 == 1) {
    // Walk the blossom cycle in the other direction so the path from the
    // base has even length (alternating structure requirement).
    std::reverse(fl.begin() + 1, fl.end());
    return static_cast<int>(fl.size()) - pr;
  }
  return pr;
}

void BlossomMatcher::set_match(int u, int v) {
  match_[static_cast<size_t>(u)] = g_(u, v).v;
  if (u > n_) {
    const Edge e = g_(u, v);
    const int xr = flower_from_(u, e.u);
    const int pr = blossom_rotation(u, xr);
    auto& fl = flower_[static_cast<size_t>(u)];
    for (int i = 0; i < pr; ++i) {
      set_match(fl[static_cast<size_t>(i)], fl[static_cast<size_t>(i ^ 1)]);
    }
    set_match(xr, v);
    std::rotate(fl.begin(), fl.begin() + pr, fl.end());
  }
}

void BlossomMatcher::augment(int u, int v) {
  while (true) {
    const int xnv = st_[static_cast<size_t>(match_[static_cast<size_t>(u)])];
    set_match(u, v);
    if (xnv == 0) return;
    set_match(xnv, st_[static_cast<size_t>(pa_[static_cast<size_t>(xnv)])]);
    u = st_[static_cast<size_t>(pa_[static_cast<size_t>(xnv)])];
    v = xnv;
  }
}

int BlossomMatcher::get_lca(int u, int v) {
  for (++lca_stamp_; u != 0 || v != 0; std::swap(u, v)) {
    if (u == 0) continue;
    if (vis_[static_cast<size_t>(u)] == lca_stamp_) return u;
    vis_[static_cast<size_t>(u)] = lca_stamp_;
    u = st_[static_cast<size_t>(match_[static_cast<size_t>(u)])];
    if (u != 0) u = st_[static_cast<size_t>(pa_[static_cast<size_t>(u)])];
  }
  return 0;
}

void BlossomMatcher::add_blossom(int u, int lca, int v) {
  int b = n_ + 1;
  while (b <= n_x_ && st_[static_cast<size_t>(b)] != 0) ++b;
  if (b > n_x_) ++n_x_;
  assert(b < stride_);

  lab_[static_cast<size_t>(b)] = 0;
  s_[static_cast<size_t>(b)] = 0;
  match_[static_cast<size_t>(b)] = match_[static_cast<size_t>(lca)];
  auto& fl = flower_[static_cast<size_t>(b)];
  fl.clear();
  fl.push_back(lca);
  for (int x = u, y; x != lca;
       x = st_[static_cast<size_t>(pa_[static_cast<size_t>(y)])]) {
    fl.push_back(x);
    y = st_[static_cast<size_t>(match_[static_cast<size_t>(x)])];
    fl.push_back(y);
    push_queue(y);
  }
  std::reverse(fl.begin() + 1, fl.end());
  for (int x = v, y; x != lca;
       x = st_[static_cast<size_t>(pa_[static_cast<size_t>(y)])]) {
    fl.push_back(x);
    y = st_[static_cast<size_t>(match_[static_cast<size_t>(x)])];
    fl.push_back(y);
    push_queue(y);
  }
  set_state(b, b);
  // Row b takes, per x, the flower member's edge of least slack (the
  // first on ties), scanning the members' rows in order; column b is
  // then written once per x from the winner's mirror cell.
  Edge* row_b = &g_(b, 0);
  for (int x = 1; x <= n_x_; ++x) row_b[x].w = 0;
  for (int xs : fl) {
    const Edge* row = &g_(xs, 0);
    for (int x = 1; x <= n_x_; ++x) {
      if (row_b[x].w == 0 || edge_delta(row[x]) < edge_delta(row_b[x])) {
        row_b[x] = row[x];
        best_[static_cast<size_t>(x)] = xs;
      }
    }
  }
  for (int x = 1; x <= n_x_; ++x) {
    g_(x, b) = g_(x, best_[static_cast<size_t>(x)]);
  }
  for (int x = 1; x <= n_; ++x) flower_from_(b, x) = 0;
  for (int xs : fl) set_flower_from(b, xs, xs);
  set_slack(b);
}

void BlossomMatcher::expand_blossom(int b) {
  auto& fl = flower_[static_cast<size_t>(b)];
  for (int sub : fl) set_state(sub, sub);
  const int xr = flower_from_(b, g_(b, pa_[static_cast<size_t>(b)]).u);
  const int pr = blossom_rotation(b, xr);
  for (int i = 0; i < pr; i += 2) {
    const int xs = fl[static_cast<size_t>(i)];
    const int xns = fl[static_cast<size_t>(i + 1)];
    pa_[static_cast<size_t>(xs)] = g_(xns, xs).u;
    s_[static_cast<size_t>(xs)] = 1;
    s_[static_cast<size_t>(xns)] = 0;
    slack_[static_cast<size_t>(xs)] = 0;
    set_slack(xns);
    push_queue(xns);
  }
  s_[static_cast<size_t>(xr)] = 1;
  pa_[static_cast<size_t>(xr)] = pa_[static_cast<size_t>(b)];
  for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < fl.size(); ++i) {
    const int xs = fl[i];
    s_[static_cast<size_t>(xs)] = -1;
    set_slack(xs);
  }
  st_[static_cast<size_t>(b)] = 0;
}

bool BlossomMatcher::on_found_edge(const Edge& e) {
  const int u = st_[static_cast<size_t>(e.u)];
  const int v = st_[static_cast<size_t>(e.v)];
  if (s_[static_cast<size_t>(v)] == -1) {
    pa_[static_cast<size_t>(v)] = e.u;
    s_[static_cast<size_t>(v)] = 1;
    const int nu = st_[static_cast<size_t>(match_[static_cast<size_t>(v)])];
    slack_[static_cast<size_t>(v)] = 0;
    slack_[static_cast<size_t>(nu)] = 0;
    s_[static_cast<size_t>(nu)] = 0;
    push_queue(nu);
  } else if (s_[static_cast<size_t>(v)] == 0) {
    const int lca = get_lca(u, v);
    if (lca == 0) {
      augment(u, v);
      augment(v, u);
      return true;
    }
    add_blossom(u, lca, v);
  }
  return false;
}

bool BlossomMatcher::matching_round() {
  std::fill(s_.begin() + 1, s_.begin() + 1 + n_x_, -1);
  std::fill(slack_.begin() + 1, slack_.begin() + 1 + n_x_, 0);
  queue_.clear();
  queue_head_ = 0;
  for (int x = 1; x <= n_x_; ++x) {
    if (st_[static_cast<size_t>(x)] == x && match_[static_cast<size_t>(x)] == 0) {
      pa_[static_cast<size_t>(x)] = 0;
      s_[static_cast<size_t>(x)] = 0;
      push_queue(x);
    }
  }
  if (queue_.empty()) return false;  // matching is perfect

  while (true) {
    while (queue_head_ < queue_.size()) {
      const int u = queue_[queue_head_++];
      if (s_[static_cast<size_t>(st_[static_cast<size_t>(u)])] == 1) continue;
      // Locals, so the slack stores below need not reload them; of
      // these only st_[u] can change, in on_found_edge. A tight edge
      // into a T-node would be a no-op there.
      const std::int64_t* w_row = &w_(u, 0);
      const std::int64_t* lab = lab_.data();
      const int* st = st_.data();
      const std::int64_t lab_u = lab[u];
      const int n = n_;
      int st_u = st[u];
      for (int v = 1; v <= n; ++v) {
        const std::int64_t w = w_row[v];
        const int x = st[v];
        if (w == 0 || x == st_u) continue;
        const std::int64_t delta = lab_u + lab[v] - w * 2;
        if (delta == 0) {
          if (s_[static_cast<size_t>(x)] != 1) {
            if (on_found_edge(g_(u, v))) return true;
            st_u = st[u];
          }
        } else {
          update_slack(u, x, x == v ? delta : edge_delta(g_(u, x)));
        }
      }
    }

    // Dual adjustment.
    std::int64_t d = kInf;
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<size_t>(b)] == b && s_[static_cast<size_t>(b)] == 1) {
        d = std::min(d, lab_[static_cast<size_t>(b)] / 2);
      }
    }
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[static_cast<size_t>(x)] == x && slack_[static_cast<size_t>(x)] != 0) {
        if (s_[static_cast<size_t>(x)] == -1) {
          d = std::min(d, slack_delta(x));
        } else if (s_[static_cast<size_t>(x)] == 0) {
          d = std::min(d, slack_delta(x) / 2);
        }
      }
    }
    for (int u = 1; u <= n_; ++u) {
      const int root_state = s_[static_cast<size_t>(st_[static_cast<size_t>(u)])];
      if (root_state == 0) {
        if (lab_[static_cast<size_t>(u)] <= d) return false;
        lab_[static_cast<size_t>(u)] -= d;
      } else if (root_state == 1) {
        lab_[static_cast<size_t>(u)] += d;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<size_t>(b)] == b) {
        if (s_[static_cast<size_t>(b)] == 0) {
          lab_[static_cast<size_t>(b)] += d * 2;
        } else if (s_[static_cast<size_t>(b)] == 1) {
          lab_[static_cast<size_t>(b)] -= d * 2;
        }
      }
    }
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[static_cast<size_t>(x)] == x && slack_[static_cast<size_t>(x)] != 0) {
        if (s_[static_cast<size_t>(x)] == -1) {
          slack_d_[static_cast<size_t>(x)] -= d;
        } else if (s_[static_cast<size_t>(x)] == 0) {
          slack_d_[static_cast<size_t>(x)] -= d * 2;
        }
      }
    }

    queue_.clear();
    queue_head_ = 0;
    // A tight edge into a T-node would be a no-op in on_found_edge.
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[static_cast<size_t>(x)] == x && slack_[static_cast<size_t>(x)] != 0 &&
          s_[static_cast<size_t>(x)] != 1 &&
          st_[static_cast<size_t>(slack_[static_cast<size_t>(x)])] != x &&
          slack_delta(x) == 0) {
        if (on_found_edge(g_(slack_[static_cast<size_t>(x)], x))) return true;
      }
    }
    for (int b = n_ + 1; b <= n_x_; ++b) {
      if (st_[static_cast<size_t>(b)] == b && s_[static_cast<size_t>(b)] == 1 &&
          lab_[static_cast<size_t>(b)] == 0) {
        expand_blossom(b);
      }
    }
  }
}

std::vector<int> BlossomMatcher::solve(std::int64_t& total_weight) {
  std::fill(match_.begin() + 1, match_.begin() + 1 + n_, 0);
  n_x_ = n_;
  for (int u = 0; u <= n_; ++u) {
    st_[static_cast<size_t>(u)] = u;
    flower_[static_cast<size_t>(u)].clear();
  }
  std::int64_t w_max = 0;
  for (int u = 1; u <= n_; ++u) {
    for (int v = 1; v <= n_; ++v) {
      flower_from_(u, v) = (u == v ? u : 0);
      w_max = std::max(w_max, w_(u, v));
    }
  }
  for (int u = 1; u <= n_; ++u) lab_[static_cast<size_t>(u)] = w_max;

  while (matching_round()) {
  }

  total_weight = 0;
  std::vector<int> mate(static_cast<size_t>(n_), -1);
  for (int u = 1; u <= n_; ++u) {
    const int m = match_[static_cast<size_t>(u)];
    if (m != 0) {
      mate[static_cast<size_t>(u - 1)] = m - 1;
      if (m < u) total_weight += w_(u, m);
    }
  }
  return mate;
}

BlossomMatcher& thread_matcher() {
  // One workspace per thread: reset() reuses its buffers, so repeated
  // rounds neither allocate nor clear a fresh (2n+1)² edge matrix.
  thread_local BlossomMatcher matcher;
  return matcher;
}

}  // namespace detail

Matching max_weight_matching(const DenseGraph& graph) {
  return max_weight_matching(
      graph.size(), [&](int u, int v) { return graph.weight(u, v); });
}

Matching greedy_matching(const DenseGraph& graph) {
  const int n = graph.size();
  Matching result;
  result.mate.assign(static_cast<size_t>(n), -1);

  struct E {
    double w;
    int u, v;
  };
  std::vector<E> edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double w = graph.weight(u, v);
      if (w > 0) edges.push_back({w, u, v});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const E& a, const E& b) {
    if (a.w != b.w) return a.w > b.w;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  for (const E& e : edges) {
    if (result.mate[static_cast<size_t>(e.u)] < 0 &&
        result.mate[static_cast<size_t>(e.v)] < 0) {
      result.mate[static_cast<size_t>(e.u)] = e.v;
      result.mate[static_cast<size_t>(e.v)] = e.u;
      result.weight += e.w;
      ++result.pairs;
    }
  }
  return result;
}

}  // namespace muri
