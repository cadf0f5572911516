#include "matching/incremental/incremental.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace muri {

namespace {

// Strict total order on neighbor candidates. Scores are exact doubles
// produced by the same expression on both the maintained and the
// from-scratch path, so comparing them directly (no epsilon) is what
// makes the two paths bit-identical.
bool neighbor_less(double score_a, JobId id_a, double score_b, JobId id_b) {
  if (score_a != score_b) return score_a < score_b;
  return id_a < id_b;
}

ResourceVector unit_of(const ResourceVector& p) {
  double sum = 0;
  for (double t : p) sum += t;
  ResourceVector u{};
  if (sum > 0) {
    for (int r = 0; r < kNumResources; ++r) {
      u[static_cast<std::size_t>(r)] = p[static_cast<std::size_t>(r)] / sum;
    }
  }
  return u;
}

double unit_dot(const ResourceVector& a, const ResourceVector& b) {
  double s = 0;
  for (int r = 0; r < kNumResources; ++r) {
    s += a[static_cast<std::size_t>(r)] * b[static_cast<std::size_t>(r)];
  }
  return s;
}

}  // namespace

double profile_similarity(const ResourceVector& a, const ResourceVector& b) {
  return unit_dot(unit_of(a), unit_of(b));
}

TopKMask::TopKMask(int k, int slack) : k_(k > 0 ? k : 0), slack_(slack) {}

void TopKMask::rescan(JobId id, Entry& e) {
  e.buffer.clear();
  for (const auto& [oid, other] : jobs_) {
    if (oid == id) continue;
    const double score = unit_dot(e.unit, other.unit);
    // Insert into sorted position; trim to cap. For a rescan this is an
    // O(n·cap) insertion sort — fine, rescans are rare by design.
    Neighbor cand{score, oid};
    auto it = std::upper_bound(
        e.buffer.begin(), e.buffer.end(), cand,
        [](const Neighbor& x, const Neighbor& y) {
          return neighbor_less(x.score, x.id, y.score, y.id);
        });
    if (e.buffer.size() < cap() ||
        it != e.buffer.end()) {
      e.buffer.insert(it, cand);
      if (e.buffer.size() > cap()) e.buffer.pop_back();
    }
  }
}

std::int64_t TopKMask::update(const std::vector<JobId>& ids,
                              const std::vector<ResourceVector>& profiles,
                              IncrementalStats* stats) {
  assert(ids.size() == profiles.size());
  std::int64_t churn = 0;

  // One hash pass classifies the whole input: a resident with matching
  // profile bits gets this round's stamp; everything else — unknown id,
  // or present with different bits (a profile flip, handled as remove +
  // add) — is an arrival. Residents left unstamped afterwards departed.
  ++seen_stamp_;
  std::vector<std::pair<JobId, const ResourceVector*>> added;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = jobs_.find(ids[i]);
    if (it != jobs_.end() && it->second.profile == profiles[i]) {
      it->second.seen = seen_stamp_;
    } else {
      added.emplace_back(ids[i], &profiles[i]);
    }
  }
  std::unordered_set<JobId> removed;
  for (const auto& [id, e] : jobs_) {
    if (e.seen != seen_stamp_) removed.insert(id);
  }
  if (!removed.empty()) {
    churn += static_cast<std::int64_t>(removed.size());
    for (JobId id : removed) {
      touch(id);
      jobs_.erase(id);
    }
    // One pass over every buffer beats a reverse index: O(n·cap) with a
    // tiny constant, and no extra structure to keep consistent. A buffer
    // only dirties the edge cache when the loss lands inside its first
    // min(k, size) entries — slack-region losses leave the emitted edges
    // untouched.
    for (auto& [id, e] : jobs_) {
      const std::size_t take =
          std::min<std::size_t>(static_cast<std::size_t>(k_),
                                e.buffer.size());
      std::size_t w = 0;
      std::size_t first_hit = e.buffer.size();
      for (std::size_t r = 0; r < e.buffer.size(); ++r) {
        if (removed.count(e.buffer[r].id) != 0) {
          if (r < first_hit) first_hit = r;
        } else {
          if (w != r) e.buffer[w] = e.buffer[r];
          ++w;
        }
      }
      if (w != e.buffer.size()) {
        e.buffer.resize(w);
        if (first_hit < take) touch(id);
      }
    }
  }

  // Arrivals: score against every resident once. The symmetric score
  // feeds both the arrival's own buffer and, when it ranks, the
  // resident's — keeping every buffer the exact best-|buffer| set.
  churn += static_cast<std::int64_t>(added.size());
  for (const auto& [id, prof] : added) {
    Entry e;
    e.profile = *prof;
    e.unit = unit_of(*prof);
    for (auto& [oid, other] : jobs_) {
      const double score = unit_dot(e.unit, other.unit);
      Neighbor mine{score, oid};
      auto it = std::upper_bound(
          e.buffer.begin(), e.buffer.end(), mine,
          [](const Neighbor& x, const Neighbor& y) {
            return neighbor_less(x.score, x.id, y.score, y.id);
          });
      if (e.buffer.size() < cap() || it != e.buffer.end()) {
        e.buffer.insert(it, mine);
        if (e.buffer.size() > cap()) e.buffer.pop_back();
      }
      Neighbor theirs{score, id};
      auto jt = std::upper_bound(
          other.buffer.begin(), other.buffer.end(), theirs,
          [](const Neighbor& x, const Neighbor& y) {
            return neighbor_less(x.score, x.id, y.score, y.id);
          });
      // A buffer below capacity only stays an *exact* best-set if it is
      // complete (holds every other job); an incomplete one — departures
      // shrank it — may only accept arrivals that beat its tail, because
      // everything outside it is known to rank worse than the tail.
      const bool complete = other.buffer.size() == jobs_.size() - 1;
      if ((other.buffer.size() < cap() && complete) ||
          jt != other.buffer.end()) {
        // An insert beyond position k only reshuffles the slack region;
        // the resident's emitted edges change only when the newcomer
        // lands inside the first k.
        if (jt - other.buffer.begin() < static_cast<std::ptrdiff_t>(k_)) {
          touch(oid);
        }
        other.buffer.insert(jt, theirs);
        if (other.buffer.size() > cap()) other.buffer.pop_back();
      }
    }
    touch(id);
    jobs_.emplace(id, std::move(e));
  }

  // Refill: a buffer that decayed below k no longer proves it holds the
  // true top-k, so rebuild it. (A buffer of size s < k is still the
  // exact best-s set when fewer than k others exist — no rescan then.)
  const std::size_t others =
      jobs_.empty() ? 0 : jobs_.size() - 1;
  const std::size_t need = std::min<std::size_t>(
      static_cast<std::size_t>(k_), others);
  for (auto& [id, e] : jobs_) {
    if (e.buffer.size() < need) {
      touch(id);  // a rescan can pull previously-evicted jobs into the top k
      rescan(id, e);
      if (stats != nullptr) ++stats->topk_rescans;
    }
  }
  if (stats != nullptr) stats->dirty_jobs += churn;
  return churn;
}

TopKMask TopKMask::from_scratch(const std::vector<JobId>& ids,
                                const std::vector<ResourceVector>& profiles,
                                int k, int slack) {
  TopKMask m(k, slack);
  m.update(ids, profiles, nullptr);
  return m;
}

namespace {

bool edge_less(const MaskEdge& x, const MaskEdge& y) {
  if (x.score != y.score) return x.score < y.score;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

}  // namespace

std::vector<MaskEdge> TopKMask::build_full_edges() const {
  std::vector<MaskEdge> out;
  out.reserve(jobs_.size() * static_cast<std::size_t>(k_ > 0 ? k_ : 1));
  for (const auto& [id, e] : jobs_) {
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(k_), e.buffer.size());
    for (std::size_t i = 0; i < take; ++i) {
      const Neighbor& nb = e.buffer[i];
      MaskEdge edge;
      edge.a = std::min(id, nb.id);
      edge.b = std::max(id, nb.id);
      edge.score = nb.score;
      out.push_back(edge);
    }
  }
  std::sort(out.begin(), out.end(), edge_less);
  // The same undirected edge can come in from both endpoints' buffers
  // (same score both ways — the score is symmetric), so adjacent
  // duplicates after the sort are exact.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const MaskEdge& x, const MaskEdge& y) {
                          return x.a == y.a && x.b == y.b;
                        }),
            out.end());
  return out;
}

bool TopKMask::lists(JobId of, JobId other, double* score) const {
  const auto it = jobs_.find(of);
  if (it == jobs_.end()) return false;
  const Entry& e = it->second;
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(k_), e.buffer.size());
  for (std::size_t i = 0; i < take; ++i) {
    if (e.buffer[i].id == other) {
      *score = e.buffer[i].score;
      return true;
    }
  }
  return false;
}

std::vector<MaskEdge> TopKMask::edges() const {
  if (!edge_cache_valid_) {
    edge_cache_ = build_full_edges();
    edge_cache_valid_ = true;
    edge_dirty_.clear();
    return edge_cache_;
  }
  if (edge_dirty_.empty()) return edge_cache_;

  // Drop every cached edge touching a dirty job, remembering the pair —
  // it may still exist (re-derived below from the live buffers). Edges
  // between two clean jobs are exactly the ones neither endpoint's
  // contribution could have changed, so they stay, in order.
  std::vector<std::pair<JobId, JobId>> candidates;
  {
    auto out = edge_cache_.begin();
    for (const MaskEdge& e : edge_cache_) {
      if (edge_dirty_.count(e.a) != 0 || edge_dirty_.count(e.b) != 0) {
        candidates.emplace_back(e.a, e.b);
      } else {
        *out = e;
        ++out;
      }
    }
    edge_cache_.erase(out, edge_cache_.end());
  }
  // Plus everything a dirty job currently offers (dead jobs offer
  // nothing). Clean→dirty edges absent from the old cache cannot exist:
  // a clean endpoint's contribution is unchanged by definition.
  for (const JobId id : edge_dirty_) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    const Entry& e = it->second;
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(k_), e.buffer.size());
    for (std::size_t i = 0; i < take; ++i) {
      candidates.emplace_back(std::min(id, e.buffer[i].id),
                              std::max(id, e.buffer[i].id));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<MaskEdge> fresh;
  fresh.reserve(candidates.size());
  for (const auto& [a, b] : candidates) {
    double score = 0;
    if (lists(a, b, &score) || lists(b, a, &score)) {
      fresh.push_back({a, b, score});
    }
  }
  std::sort(fresh.begin(), fresh.end(), edge_less);

  // The retained range and the re-derived range are disjoint in (a, b) —
  // every fresh pair has a dirty endpoint, every retained pair has none —
  // so merging under the same strict order reproduces the full sort
  // bit for bit.
  std::vector<MaskEdge> merged;
  merged.reserve(edge_cache_.size() + fresh.size());
  std::merge(edge_cache_.begin(), edge_cache_.end(), fresh.begin(),
             fresh.end(), std::back_inserter(merged), edge_less);
  edge_cache_ = std::move(merged);
  edge_dirty_.clear();
  return edge_cache_;
}

std::vector<MaskEdge> TopKMask::neighbors(JobId id) const {
  std::vector<MaskEdge> out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;
  const Entry& e = it->second;
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(k_), e.buffer.size());
  for (std::size_t i = 0; i < take; ++i) {
    const Neighbor& nb = e.buffer[i];
    out.push_back({std::min(id, nb.id), std::max(id, nb.id), nb.score});
  }
  return out;
}

std::vector<std::vector<int>> split_components(
    const std::vector<JobId>& ids, const std::vector<MaskEdge>& edges,
    int component_cap) {
  const int n = static_cast<int>(ids.size());
  std::unordered_map<JobId, int> pos;
  pos.reserve(ids.size());
  for (int i = 0; i < n; ++i) pos.emplace(ids[static_cast<std::size_t>(i)], i);

  std::vector<int> parent(static_cast<std::size_t>(n));
  std::vector<int> csize(static_cast<std::size_t>(n), 1);
  for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };

  if (component_cap >= 2) {
    for (const MaskEdge& e : edges) {
      const auto ia = pos.find(e.a);
      const auto ib = pos.find(e.b);
      if (ia == pos.end() || ib == pos.end()) continue;
      int ra = find(ia->second);
      int rb = find(ib->second);
      if (ra == rb) continue;
      if (csize[static_cast<std::size_t>(ra)] +
              csize[static_cast<std::size_t>(rb)] >
          component_cap) {
        continue;
      }
      // Union by root index (smaller root wins) — the tie rule matters
      // only for determinism, and index comparison is deterministic.
      if (rb < ra) std::swap(ra, rb);
      parent[static_cast<std::size_t>(rb)] = ra;
      csize[static_cast<std::size_t>(ra)] +=
          csize[static_cast<std::size_t>(rb)];
    }
  }

  // Emit components ordered by their minimum member index, members
  // ascending — the order a serial scan produces.
  std::vector<int> comp_of_root(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> components;
  for (int i = 0; i < n; ++i) {
    const int r = find(i);
    int& c = comp_of_root[static_cast<std::size_t>(r)];
    if (c < 0) {
      c = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<std::size_t>(c)].push_back(i);
  }
  return components;
}

bool PairGammaCache::lookup(JobId a, const ResourceVector& pa, JobId b,
                            const ResourceVector& pb, double* gamma) const {
  const auto it = map_.find(Key{a, b});
  if (it == map_.end()) return false;
  if (!(it->second.pa == pa) || !(it->second.pb == pb)) return false;
  *gamma = it->second.gamma;
  return true;
}

void PairGammaCache::store(JobId a, const ResourceVector& pa, JobId b,
                           const ResourceVector& pb, double gamma,
                           std::int64_t round) {
  Value& v = map_[Key{a, b}];
  v.pa = pa;
  v.pb = pb;
  v.gamma = gamma;
  v.last_used = round;
}

void PairGammaCache::age(std::int64_t current_round, std::int64_t max_age) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (current_round - it->second.last_used > max_age) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ComponentPairHook::lookup(int u, int v, double* gamma) {
  const auto su = static_cast<std::size_t>(u);
  const auto sv = static_cast<std::size_t>(v);
  const bool hit =
      cache_ != nullptr &&
      cache_->lookup(ids_[su], (*profiles_)[su], ids_[sv], (*profiles_)[sv],
                     gamma);
  ++(hit ? hits_ : misses_);
  return hit;
}

void ComponentPairHook::store(int u, int v, double gamma) {
  const auto su = static_cast<std::size_t>(u);
  const auto sv = static_cast<std::size_t>(v);
  PendingPairStore p;
  p.a = ids_[su];
  p.b = ids_[sv];
  p.pa = (*profiles_)[su];
  p.pb = (*profiles_)[sv];
  p.gamma = gamma;
  pending_.push_back(p);
}

const ComponentResultCache::CachedComponent* ComponentResultCache::lookup(
    const std::vector<JobId>& ids,
    const std::vector<ResourceVector>& profiles, bool need_capture,
    std::int64_t round) {
  const auto it = map_.find(ids);
  if (it == map_.end()) return nullptr;
  CachedComponent& c = it->second;
  if (need_capture && !c.has_capture) return nullptr;
  if (c.profiles.size() != profiles.size()) return nullptr;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (!(c.profiles[i] == profiles[i])) return nullptr;
  }
  c.last_used = round;
  return &c;
}

void ComponentResultCache::store(CachedComponent entry, std::int64_t round) {
  entry.last_used = round;
  std::vector<JobId> key = entry.ids;
  map_.insert_or_assign(std::move(key), std::move(entry));
}

void ComponentResultCache::age(std::int64_t current_round,
                               std::int64_t max_age) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (current_round - it->second.last_used > max_age) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace muri
