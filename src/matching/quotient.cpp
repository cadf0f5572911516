#include "matching/quotient.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "matching/blossom.h"

namespace muri {

namespace {

// Simplex pivot and reduced-cost tolerance, on weights scaled to ≤ 1.
constexpr double kEps = 1e-9;
// An odd-set row is added when x(E[U]) exceeds ⌊c(U)/2⌋ by more than this.
constexpr double kCutViolation = 1e-7;
// A count farther than this from an integer makes the vertex fractional.
constexpr double kIntegral = 1e-6;
// Re-solves allowed while adding odd-set rows.
constexpr int kMaxCutRounds = 32;
// Added to the dual lift so that rounding in the certificate's own
// arithmetic (long double sums, y stored as doubles) cannot make an
// infeasible dual look feasible. In weight units (1e-8 of γ); over n ≤
// 2,000 nodes it raises the bound by at most 0.2 of the certificate's
// margin of 1.
constexpr long double kDualGuard = 1e-4L;

int lowest_bit(std::uint32_t mask) { return __builtin_ctz(mask); }

bool in_set(std::uint32_t mask, int a) { return ((mask >> a) & 1u) != 0; }

// Dense-tableau primal simplex for max c·x subject to A·x ≤ b, x ≥ 0,
// with b ≥ 0 so the all-slack basis is feasible and no phase 1 is needed.
// Dantzig's rule, switching to Bland's rule (which cannot cycle) once the
// pivot count suggests a degenerate stall.
class Lp {
 public:
  Lp(int rows, int cols)
      : m_(rows),
        n_(cols),
        w_(rows + cols + 1),
        t_(static_cast<size_t>(rows + 1) * static_cast<size_t>(w_), 0.0),
        basis_(static_cast<size_t>(rows)) {
    for (int r = 0; r < m_; ++r) {
      at(r, n_ + r) = 1;
      basis_[static_cast<size_t>(r)] = n_ + r;
    }
  }

  void set(int row, int col, double a) { at(row, col) = a; }
  void set_rhs(int row, double b) { at(row, w_ - 1) = b; }
  void set_objective(int col, double c) { at(m_, col) = -c; }

  // False when the pivot budget runs out (or the LP is unbounded, which a
  // b-matching LP with its degree rows cannot be).
  bool solve() {
    const int cols = n_ + m_;
    const int bland_after = 4 * cols + 16;
    const int limit = 50 * cols + 200;
    for (int it = 0; it < limit; ++it) {
      int enter = -1;
      double most = -kEps;
      for (int j = 0; j < cols; ++j) {
        const double d = at(m_, j);
        if (d < most) {
          enter = j;
          most = d;
          if (it >= bland_after) break;
        }
      }
      if (enter < 0) return true;
      int leave = -1;
      double best = 0;
      for (int r = 0; r < m_; ++r) {
        const double a = at(r, enter);
        if (a <= kEps) continue;
        const double ratio = at(r, w_ - 1) / a;
        if (leave < 0 || ratio < best - kEps ||
            (ratio <= best + kEps &&
             basis_[static_cast<size_t>(r)] <
                 basis_[static_cast<size_t>(leave)])) {
          leave = r;
          best = ratio;
        }
      }
      if (leave < 0) return false;
      pivot(leave, enter);
    }
    return false;
  }

  double primal(int col) const {
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<size_t>(r)] == col) return at(r, w_ - 1);
    }
    return 0;
  }

  // Shadow price of row `row` at the optimum.
  double dual(int row) const { return at(m_, n_ + row); }

 private:
  double& at(int r, int c) {
    return t_[static_cast<size_t>(r) * static_cast<size_t>(w_) +
              static_cast<size_t>(c)];
  }
  double at(int r, int c) const {
    return t_[static_cast<size_t>(r) * static_cast<size_t>(w_) +
              static_cast<size_t>(c)];
  }

  void pivot(int pr, int pc) {
    const double p = at(pr, pc);
    for (int j = 0; j < w_; ++j) at(pr, j) /= p;
    at(pr, pc) = 1;
    for (int i = 0; i <= m_; ++i) {
      if (i == pr) continue;
      const double f = at(i, pc);
      if (f == 0) continue;
      for (int j = 0; j < w_; ++j) at(i, j) -= f * at(pr, j);
      at(i, pc) = 0;
      // Keep the basis primal feasible against rounding drift.
      if (i < m_ && at(i, w_ - 1) < 0 && at(i, w_ - 1) > -kEps) {
        at(i, w_ - 1) = 0;
      }
    }
    basis_[static_cast<size_t>(pr)] = pc;
  }

  int m_;
  int n_;
  int w_;  // columns: structural, slack, right-hand side
  std::vector<double> t_;
  std::vector<int> basis_;
};

// Σ quantize_weight over the matched pairs of `m` in `g`.
[[maybe_unused]] std::int64_t integer_weight(const DenseGraph& g,
                                             const Matching& m) {
  std::int64_t total = 0;
  for (int u = 0; u < g.size(); ++u) {
    const int v = m.mate[static_cast<size_t>(u)];
    if (v > u) total += quantize_weight(g.weight(u, v));
  }
  return total;
}

// The classes of a typed graph: types merged where their quantized rows
// agree, with each class's size and the S × S table of quantized class
// pair weights.
struct Classes {
  std::vector<int> of_type;  // type -> class, -1 for a type with no node
  std::vector<std::int64_t> counts;
  std::vector<std::int64_t> table;
};

// False when `g` is not class-structured within the bounds: a type pair
// whose two orders read different quantized weights, an unpriced cell a
// pair reads, or more than kMaxQuotientClasses classes.
bool classify(const TypedGraph& g, Classes& out) {
  const int n = g.size();
  const int types = g.types;
  const auto t_count = static_cast<size_t>(types);
  std::vector<int> count(t_count, 0);
  std::vector<int> first(t_count, n);
  std::vector<int> last(t_count, -1);
  for (int u = 0; u < n; ++u) {
    const auto t = static_cast<size_t>(g.type_of[static_cast<size_t>(u)]);
    ++count[t];
    first[t] = std::min(first[t], u);
    last[t] = u;
  }
  // A node pair reads cell (t, s) iff some node of type t precedes one of
  // type s.
  const auto read = [&](int t, int s) {
    const auto ti = static_cast<size_t>(t);
    const auto si = static_cast<size_t>(s);
    return t == s ? count[ti] >= 2 : first[ti] < last[si];
  };
  // The one quantized weight of the unordered type pair {t, s}, or
  // kUnread when no node pair reads either order (only t = s with one
  // node).
  constexpr std::int64_t kUnread = -1;
  std::vector<std::int64_t> pair(t_count * t_count, kUnread);
  const auto at = [&](int t, int s) -> std::int64_t& {
    return pair[static_cast<size_t>(t) * t_count + static_cast<size_t>(s)];
  };
  for (int t = 0; t < types; ++t) {
    if (count[static_cast<size_t>(t)] == 0) continue;
    for (int s = t; s < types; ++s) {
      if (count[static_cast<size_t>(s)] == 0) continue;
      std::int64_t value = kUnread;
      for (const auto& [i, j] : {std::pair{t, s}, std::pair{s, t}}) {
        if (!read(i, j)) continue;
        const double w =
            g.weight[static_cast<size_t>(i) * t_count + static_cast<size_t>(j)];
        if (std::isnan(w)) return false;
        const std::int64_t q = w > 0 ? quantize_weight(w) : 0;
        if (value != kUnread && value != q) return false;
        value = q;
      }
      at(t, s) = value;
      at(s, t) = value;
    }
  }

  // Greedy first fit: type t joins the first class whose representative
  // r has t's row (every other type weighs the same against t and r) and
  // whose pairs inside the class weigh what t weighs against r.
  out.of_type.assign(t_count, -1);
  std::vector<int> reps;
  for (int t = 0; t < types; ++t) {
    if (count[static_cast<size_t>(t)] == 0) continue;
    int joined = -1;
    for (int a = 0; a < static_cast<int>(reps.size()) && joined < 0; ++a) {
      const int r = reps[static_cast<size_t>(a)];
      bool same = at(t, t) == kUnread || at(t, t) == at(t, r);
      if (at(r, r) != kUnread && at(r, r) != at(t, r)) same = false;
      for (int x = 0; x < types && same; ++x) {
        if (x == t || x == r || count[static_cast<size_t>(x)] == 0) continue;
        same = at(t, x) == at(r, x);
      }
      if (same) joined = a;
    }
    if (joined < 0) {
      if (static_cast<int>(reps.size()) == kMaxQuotientClasses) return false;
      joined = static_cast<int>(reps.size());
      reps.push_back(t);
    }
    out.of_type[static_cast<size_t>(t)] = joined;
  }

  // The table from the first pair of each class pair, then a full check
  // that every type pair agrees with it.
  const auto classes = static_cast<size_t>(reps.size());
  out.counts.assign(classes, 0);
  out.table.assign(classes * classes, kUnread);
  for (int t = 0; t < types; ++t) {
    const int a = out.of_type[static_cast<size_t>(t)];
    if (a < 0) continue;
    out.counts[static_cast<size_t>(a)] += count[static_cast<size_t>(t)];
    for (int s = 0; s < types; ++s) {
      const int b = out.of_type[static_cast<size_t>(s)];
      if (b < 0 || at(t, s) == kUnread) continue;
      std::int64_t& cell =
          out.table[static_cast<size_t>(a) * classes + static_cast<size_t>(b)];
      if (cell == kUnread) {
        cell = at(t, s);
      } else if (cell != at(t, s)) {
        return false;
      }
    }
  }
  // Only a one-node class leaves its own cell unread; nothing reads it.
  for (std::int64_t& cell : out.table) cell = std::max<std::int64_t>(cell, 0);
  return true;
}

// The fixed mapping of class-pair counts onto nodes (see
// match_typed_graph).
std::vector<int> assign_mates(const std::vector<int>& class_of_node,
                              const QuotientSolution& sol) {
  const int classes = sol.classes;
  std::vector<std::vector<int>> members(static_cast<size_t>(classes));
  for (int u = 0; u < static_cast<int>(class_of_node.size()); ++u) {
    members[static_cast<size_t>(class_of_node[static_cast<size_t>(u)])]
        .push_back(u);
  }
  std::vector<size_t> next(static_cast<size_t>(classes), 0);
  const auto take = [&](int a) {
    return members[static_cast<size_t>(a)][next[static_cast<size_t>(a)]++];
  };
  std::vector<int> mate(class_of_node.size(), -1);
  for (int a = 0; a < classes; ++a) {
    for (int b = a; b < classes; ++b) {
      for (std::int64_t i = 0; i < sol.pairs_of(a, b); ++i) {
        const int u = take(a);
        const int v = take(b);
        mate[static_cast<size_t>(u)] = v;
        mate[static_cast<size_t>(v)] = u;
      }
    }
  }
  return mate;
}

}  // namespace

QuotientSolution solve_quotient(const std::vector<std::int64_t>& counts,
                                const std::vector<std::int64_t>& weights) {
  const int classes = static_cast<int>(counts.size());
  assert(classes >= 1 && classes <= kMaxQuotientClasses);
  const auto s = static_cast<size_t>(classes);
  assert(weights.size() == s * s);
  QuotientSolution sol;
  sol.classes = classes;
  sol.pairs.assign(s * s, 0);
  sol.y.assign(s, 0.0);
  const auto q = [&](int a, int b) {
    return weights[static_cast<size_t>(a) * s + static_cast<size_t>(b)];
  };

  // One unknown per class pair a ≤ b that can hold a positive pair.
  struct Var {
    int a;
    int b;
  };
  std::vector<Var> vars;
  std::int64_t q_max = 0;
  for (int a = 0; a < classes; ++a) {
    assert(counts[static_cast<size_t>(a)] >= 1);
    for (int b = a; b < classes; ++b) {
      assert(q(a, b) == q(b, a) && q(a, b) >= 0);
      if (q(a, b) > 0 && (a != b || counts[static_cast<size_t>(a)] >= 2)) {
        vars.push_back({a, b});
        q_max = std::max(q_max, q(a, b));
      }
    }
  }
  if (vars.empty()) {
    sol.certified = true;  // V = D = 0
    return sol;
  }
  const double scale = static_cast<double>(q_max);

  // c(U) of every class subset U, as a bitmask.
  const std::uint32_t subsets = 1u << classes;
  std::vector<std::int64_t> c_of(subsets, 0);
  for (std::uint32_t mask = 1; mask < subsets; ++mask) {
    c_of[mask] = c_of[mask & (mask - 1)] +
                 counts[static_cast<size_t>(lowest_bit(mask))];
  }

  std::vector<std::uint32_t> cuts;
  std::vector<double> x(vars.size(), 0.0);
  std::vector<double> row_duals;
  std::vector<double> x_pair(s * s, 0.0);
  std::vector<double> x_inside(subsets, 0.0);  // x(E[U])
  std::vector<std::pair<double, std::uint32_t>> violated;
  for (int round = 0;; ++round) {
    if (round == kMaxCutRounds) return sol;
    const int rows = classes + static_cast<int>(cuts.size());
    Lp lp(rows, static_cast<int>(vars.size()));
    for (int j = 0; j < static_cast<int>(vars.size()); ++j) {
      const auto [a, b] = vars[static_cast<size_t>(j)];
      lp.set_objective(j, static_cast<double>(q(a, b)) / scale);
      if (a == b) {
        lp.set(a, j, 2);
      } else {
        lp.set(a, j, 1);
        lp.set(b, j, 1);
      }
      for (size_t k = 0; k < cuts.size(); ++k) {
        if (in_set(cuts[k], a) && in_set(cuts[k], b)) {
          lp.set(classes + static_cast<int>(k), j, 1);
        }
      }
    }
    for (int a = 0; a < classes; ++a) {
      lp.set_rhs(a, static_cast<double>(counts[static_cast<size_t>(a)]));
    }
    for (size_t k = 0; k < cuts.size(); ++k) {
      lp.set_rhs(classes + static_cast<int>(k),
                 static_cast<double>(c_of[cuts[k]] / 2));
    }
    if (!lp.solve()) return sol;
    std::fill(x_pair.begin(), x_pair.end(), 0.0);
    for (size_t j = 0; j < vars.size(); ++j) {
      x[j] = lp.primal(static_cast<int>(j));
      const auto [a, b] = vars[j];
      x_pair[static_cast<size_t>(a) * s + static_cast<size_t>(b)] = x[j];
      x_pair[static_cast<size_t>(b) * s + static_cast<size_t>(a)] = x[j];
    }

    // Separation: every subset U with odd c(U), x(E[U]) by a subset DP.
    violated.clear();
    for (std::uint32_t mask = 1; mask < subsets; ++mask) {
      const int a = lowest_bit(mask);
      const std::uint32_t rest = mask & (mask - 1);
      const size_t row = static_cast<size_t>(a) * s;
      double inside = x_inside[rest] + x_pair[row + static_cast<size_t>(a)];
      for (std::uint32_t r = rest; r != 0; r &= r - 1) {
        inside += x_pair[row + static_cast<size_t>(lowest_bit(r))];
      }
      x_inside[mask] = inside;
      if (c_of[mask] % 2 == 1) {
        const double excess =
            inside - static_cast<double>(c_of[mask] / 2);
        if (excess > kCutViolation) violated.emplace_back(-excess, mask);
      }
    }
    if (violated.empty()) {
      row_duals.resize(static_cast<size_t>(rows));
      for (int r = 0; r < rows; ++r) {
        row_duals[static_cast<size_t>(r)] = std::max(0.0, lp.dual(r)) * scale;
      }
      break;
    }
    // The most violated rows first, at most one per class per round.
    std::sort(violated.begin(), violated.end());
    int added = 0;
    for (const auto& [excess, mask] : violated) {
      if (added == classes) break;
      if (std::find(cuts.begin(), cuts.end(), mask) != cuts.end()) continue;
      cuts.push_back(mask);
      ++added;
    }
    if (added == 0) return sol;  // a row already in the LP reads violated
  }

  // Primal: round the vertex and check it exactly.
  std::vector<std::int64_t> degree(s, 0);
  for (size_t j = 0; j < vars.size(); ++j) {
    const double r = std::round(x[j]);
    if (std::fabs(x[j] - r) > kIntegral || r < 0) return sol;
    const auto count = static_cast<std::int64_t>(r);
    const auto [a, b] = vars[j];
    sol.pairs[static_cast<size_t>(a) * s + static_cast<size_t>(b)] = count;
    sol.pairs[static_cast<size_t>(b) * s + static_cast<size_t>(a)] = count;
    degree[static_cast<size_t>(a)] += count;
    degree[static_cast<size_t>(b)] += count;
    sol.weight += q(a, b) * count;
  }
  for (int a = 0; a < classes; ++a) {
    if (degree[static_cast<size_t>(a)] > counts[static_cast<size_t>(a)]) {
      return sol;
    }
  }

  // Dual: lift every y_a by the largest violation of a pair's dual row
  // y_a + y_b + Σ_{U ∋ a, b} z_U ≥ q_ab (2·y_a + … for a self-pair), which
  // makes (y, z) feasible; its objective bounds every b-matching.
  for (size_t k = 0; k < cuts.size(); ++k) {
    sol.cuts.emplace_back(cuts[k], row_duals[s + k]);
  }
  const auto cover = [&](const Var& v) {
    long double lhs = sol.y[static_cast<size_t>(v.a)];
    lhs += sol.y[static_cast<size_t>(v.b)];
    for (const auto& [mask, z] : sol.cuts) {
      if (in_set(mask, v.a) && in_set(mask, v.b)) lhs += z;
    }
    return lhs;
  };
  for (int a = 0; a < classes; ++a) {
    sol.y[static_cast<size_t>(a)] = row_duals[static_cast<size_t>(a)];
  }
  long double lift = 0;
  for (const Var& v : vars) {
    lift = std::max(lift, static_cast<long double>(q(v.a, v.b)) - cover(v));
  }
  lift += kDualGuard;
  for (double& y : sol.y) {
    const long double lifted = static_cast<long double>(y) + lift;
    y = static_cast<double>(lifted);
    if (static_cast<long double>(y) < lifted) {
      y = std::nextafter(y, std::numeric_limits<double>::infinity());
    }
  }
  long double bound = 0;
  for (int a = 0; a < classes; ++a) {
    bound += static_cast<long double>(counts[static_cast<size_t>(a)]) *
             sol.y[static_cast<size_t>(a)];
  }
  for (const auto& [mask, z] : sol.cuts) {
    bound += static_cast<long double>(c_of[mask] / 2) * z;
  }
  sol.dual_bound = bound;
  sol.certified =
      bound < static_cast<long double>(sol.weight) + 1.0L;
  return sol;
}

DenseGraph expand(const TypedGraph& g) {
  const int n = g.size();
  DenseGraph graph(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double w = g.pair_weight(u, v);
      if (w > 0) graph.set_weight(u, v, w);
    }
  }
  return graph;
}

Matching match_typed_graph(const TypedGraph& g, StageSolver* solver) {
  const int n = g.size();
  StageSolver how = StageSolver::kDense;
  Classes classes;
  QuotientSolution sol;
  if (n >= 2 && g.types <= kMaxQuotientTypes && classify(g, classes)) {
    sol = solve_quotient(classes.counts, classes.table);
    how = sol.certified ? StageSolver::kQuotient : StageSolver::kFallback;
  }
  if (solver != nullptr) *solver = how;
  if (how != StageSolver::kQuotient) {
    return max_weight_matching(
        n, [&](int u, int v) { return g.pair_weight(u, v); });
  }

  std::vector<int> class_of_node(static_cast<size_t>(n));
  for (int u = 0; u < n; ++u) {
    class_of_node[static_cast<size_t>(u)] = classes.of_type[static_cast<size_t>(
        g.type_of[static_cast<size_t>(u)])];
  }
  Matching result;
  result.mate = assign_mates(class_of_node, sol);
  for (int u = 0; u < n; ++u) {
    const int v = result.mate[static_cast<size_t>(u)];
    if (v > u) {
      result.weight += g.pair_weight(u, v);
      ++result.pairs;
    }
  }
#ifndef NDEBUG
  // Debug builds prove every certified solve against Blossom.
  const DenseGraph dense = expand(g);
  assert(dense.validate(result));
  assert(integer_weight(dense, result) == sol.weight);
  assert(integer_weight(dense, max_weight_matching(dense)) == sol.weight);
#endif
  return result;
}

}  // namespace muri
