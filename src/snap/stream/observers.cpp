#include "snap/stream/observers.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace snap::stream {

// ---------------------------------------------------------------- components

ComponentsObserver::ComponentsObserver(const DynamicGraph& graph)
    : graph_(graph) {
  rebuild();
  rebuilds_ = 0;  // the initial build is not a "re"-build
}

void ComponentsObserver::on_batch(const AppliedBatch& batch) {
  if (static_cast<std::size_t>(batch.num_vertices) > uf_.size())
    uf_.grow(static_cast<std::size_t>(batch.num_vertices));
  if (!batch.deleted.empty()) {
    // A deletion can split a component, which union–find cannot undo; go
    // stale once for the whole batch.  The surviving inserts need no replay —
    // the rebuild reads them from the graph.
    stale_ = true;
    return;
  }
  if (stale_) return;
  for (const auto& [u, v] : batch.inserted) uf_.unite(u, v);
}

bool ComponentsObserver::connected(vid_t u, vid_t v) {
  if (stale_) rebuild();
  return uf_.connected(u, v);
}

vid_t ComponentsObserver::num_components() {
  if (stale_) rebuild();
  return static_cast<vid_t>(uf_.num_sets());
}

void ComponentsObserver::rebuild() {
  const vid_t n = graph_.num_vertices();
  uf_.reset(static_cast<std::size_t>(n));
  for (vid_t u = 0; u < n; ++u)
    for (const vid_t v : graph_.neighbors(u))
      if (u <= v || graph_.directed()) uf_.unite(u, v);
  stale_ = false;
  ++rebuilds_;
}

// ------------------------------------------------------------- degree stats

DegreeStatsObserver::DegreeStatsObserver(const DynamicGraph& graph)
    : directed_(graph.directed()) {
  const vid_t n = graph.num_vertices();
  deg_.resize(static_cast<std::size_t>(n));
  hist_.assign(1, 0);
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = graph.degree(v);
    deg_[static_cast<std::size_t>(v)] = d;
    if (static_cast<std::size_t>(d) >= hist_.size())
      hist_.resize(static_cast<std::size_t>(d) + 1, 0);
    ++hist_[static_cast<std::size_t>(d)];
    max_degree_ = std::max(max_degree_, d);
  }
  hist_.resize(static_cast<std::size_t>(max_degree_) + 1);
}

void DegreeStatsObserver::bump(vid_t v, eid_t delta) {
  eid_t d = deg_[static_cast<std::size_t>(v)];
  --hist_[static_cast<std::size_t>(d)];
  d += delta;
  deg_[static_cast<std::size_t>(v)] = d;
  if (static_cast<std::size_t>(d) >= hist_.size())
    hist_.resize(static_cast<std::size_t>(d) + 1, 0);
  ++hist_[static_cast<std::size_t>(d)];
  max_degree_ = std::max(max_degree_, d);
}

void DegreeStatsObserver::on_batch(const AppliedBatch& batch) {
  if (static_cast<std::size_t>(batch.num_vertices) > deg_.size()) {
    const auto grown =
        static_cast<eid_t>(batch.num_vertices - num_vertices());
    deg_.resize(static_cast<std::size_t>(batch.num_vertices), 0);
    hist_[0] += grown;
  }
  for (const auto& [u, v] : batch.inserted) {
    bump(u, +1);
    if (!directed_ && v != u) bump(v, +1);
  }
  for (const auto& [u, v] : batch.deleted) {
    bump(u, -1);
    if (!directed_ && v != u) bump(v, -1);
  }
  // The max can only decay through deletions; walk it down over the (now
  // possibly empty) top histogram bins and keep the vector trimmed.
  while (max_degree_ > 0 && hist_[static_cast<std::size_t>(max_degree_)] == 0)
    --max_degree_;
  hist_.resize(static_cast<std::size_t>(max_degree_) + 1);
}

// ---------------------------------------------------------------- clustering

ClusteringObserver::ClusteringObserver(const DynamicGraph& graph)
    : graph_(graph) {
  if (graph.directed())
    throw std::invalid_argument(
        "ClusteringObserver: undirected graphs only (as the static "
        "clustering metrics)");
  const vid_t n = graph.num_vertices();
  deg_.assign(static_cast<std::size_t>(n), 0);
  tri_.assign(static_cast<std::size_t>(n), 0);

  // From-scratch seed, straight from the rows (ascending sets): each
  // self-loop-free degree is the row size less v's own entry, and every
  // triangle {u < v < w} is found once via its (u, v) edge by intersecting
  // the two rows above v, where no self loop can appear.
  for (vid_t v = 0; v < n; ++v) {
    const auto row = graph.neighbors(v);
    const auto d = static_cast<eid_t>(row.size()) -
                   (std::binary_search(row.begin(), row.end(), v) ? 1 : 0);
    deg_[static_cast<std::size_t>(v)] = d;
    wedges_ += static_cast<std::int64_t>(d) * (d - 1) / 2;
  }
  for (vid_t u = 0; u < n; ++u) {
    const auto au = graph.neighbors(u);
    for (vid_t v : au) {
      if (v <= u) continue;
      const auto av = graph.neighbors(v);
      auto iu = std::upper_bound(au.begin(), au.end(), v);
      auto iv = std::upper_bound(av.begin(), av.end(), v);
      while (iu != au.end() && iv != av.end()) {
        if (*iu < *iv) {
          ++iu;
        } else if (*iv < *iu) {
          ++iv;
        } else {
          const vid_t w = *iu;
          ++triangles_;
          ++tri_[static_cast<std::size_t>(u)];
          ++tri_[static_cast<std::size_t>(v)];
          ++tri_[static_cast<std::size_t>(w)];
          ++iu;
          ++iv;
        }
      }
    }
  }
}

namespace {

/// One batch edge touching a vertex, in the replay's per-endpoint index.
struct DeltaArc {
  vid_t other;
  std::uint32_t idx;  ///< into the pending flags of its kind
  bool is_insert;
};

using DeltaIndex = std::unordered_map<vid_t, std::vector<DeltaArc>>;

const DeltaArc* find_delta(const DeltaIndex& delta, vid_t x, vid_t y) {
  const auto it = delta.find(x);
  if (it == delta.end()) return nullptr;
  const auto& v = it->second;
  const auto at = std::lower_bound(
      v.begin(), v.end(), y,
      [](const DeltaArc& d, vid_t key) { return d.other < key; });
  return (at != v.end() && at->other == y) ? &*at : nullptr;
}

}  // namespace

void ClusteringObserver::on_batch(const AppliedBatch& batch) {
  if (static_cast<std::size_t>(batch.num_vertices) > deg_.size()) {
    deg_.resize(static_cast<std::size_t>(batch.num_vertices), 0);
    tri_.resize(static_cast<std::size_t>(batch.num_vertices), 0);
  }

  // Self loops never partake in triangles or (self-loop-free) degrees.
  std::vector<std::pair<vid_t, vid_t>> dels, ins;
  for (const auto& e : batch.deleted)
    if (e.first != e.second) dels.push_back(e);
  for (const auto& e : batch.inserted)
    if (e.first != e.second) ins.push_back(e);
  if (dels.empty() && ins.empty()) return;

  // Replay state: a deletion is conceptually still present until replayed;
  // an insertion is conceptually absent until replayed.  Presence queries
  // against the post-batch graph are corrected by these flags, which makes
  // every per-edge common-neighbor count exact mid-replay.
  std::vector<std::uint8_t> del_pending(dels.size(), 1);
  std::vector<std::uint8_t> ins_pending(ins.size(), 1);
  DeltaIndex delta;
  for (std::uint32_t i = 0; i < dels.size(); ++i) {
    delta[dels[i].first].push_back({dels[i].second, i, false});
    delta[dels[i].second].push_back({dels[i].first, i, false});
  }
  for (std::uint32_t i = 0; i < ins.size(); ++i) {
    delta[ins[i].first].push_back({ins[i].second, i, true});
    delta[ins[i].second].push_back({ins[i].first, i, true});
  }
  for (auto& [v, arcs] : delta)
    std::sort(arcs.begin(), arcs.end(),
              [](const DeltaArc& a, const DeltaArc& b) {
                return a.other < b.other;
              });

  auto present = [&](vid_t x, vid_t y) -> bool {
    if (const DeltaArc* d = find_delta(delta, x, y))
      return d->is_insert ? !ins_pending[d->idx] : del_pending[d->idx] != 0;
    return graph_.has_edge(x, y);
  };

  // Common neighbors of (u, v) in the current replay state, iterating the
  // lower-degree endpoint's adjacency.
  std::vector<vid_t> commons;
  auto count_commons = [&](vid_t u, vid_t v) {
    commons.clear();
    const vid_t a = deg_[static_cast<std::size_t>(u)] <=
                            deg_[static_cast<std::size_t>(v)]
                        ? u
                        : v;
    const vid_t b = a == u ? v : u;
    for (const vid_t w : graph_.neighbors(a)) {
      if (w == u || w == v) continue;
      if (const DeltaArc* d = find_delta(delta, a, w))
        if (d->is_insert && ins_pending[d->idx]) continue;  // not yet inserted
      if (present(b, w)) commons.push_back(w);
    }
    const auto it = delta.find(a);
    if (it != delta.end()) {
      for (const DeltaArc& d : it->second) {
        // Deleted-but-not-yet-replayed arcs are present though absent from
        // the post-batch graph's adjacency.
        if (d.is_insert || !del_pending[d.idx]) continue;
        const vid_t w = d.other;
        if (w == u || w == v) continue;
        if (present(b, w)) commons.push_back(w);
      }
    }
  };

  // Deletions first, insertions second, each in canonical order — a valid
  // serialization from the pre-batch to the post-batch graph (the two edge
  // sets are disjoint).
  for (std::uint32_t i = 0; i < dels.size(); ++i) {
    const auto [u, v] = dels[i];
    count_commons(u, v);
    const auto c = static_cast<std::int64_t>(commons.size());
    triangles_ -= c;
    tri_[static_cast<std::size_t>(u)] -= c;
    tri_[static_cast<std::size_t>(v)] -= c;
    for (vid_t w : commons) --tri_[static_cast<std::size_t>(w)];
    wedges_ -= (deg_[static_cast<std::size_t>(u)] - 1) +
               (deg_[static_cast<std::size_t>(v)] - 1);
    --deg_[static_cast<std::size_t>(u)];
    --deg_[static_cast<std::size_t>(v)];
    del_pending[i] = 0;
  }
  for (std::uint32_t i = 0; i < ins.size(); ++i) {
    const auto [u, v] = ins[i];
    count_commons(u, v);
    const auto c = static_cast<std::int64_t>(commons.size());
    triangles_ += c;
    tri_[static_cast<std::size_t>(u)] += c;
    tri_[static_cast<std::size_t>(v)] += c;
    for (vid_t w : commons) ++tri_[static_cast<std::size_t>(w)];
    wedges_ += deg_[static_cast<std::size_t>(u)] +
               deg_[static_cast<std::size_t>(v)];
    ++deg_[static_cast<std::size_t>(u)];
    ++deg_[static_cast<std::size_t>(v)];
    ins_pending[i] = 0;
  }
}

double ClusteringObserver::global_clustering() const {
  return wedges_ == 0 ? 0.0
                      : 3.0 * static_cast<double>(triangles_) /
                            static_cast<double>(wedges_);
}

double ClusteringObserver::local_clustering(vid_t v) const {
  const eid_t d = deg_[static_cast<std::size_t>(v)];
  if (d < 2) return 0.0;
  return 2.0 * static_cast<double>(tri_[static_cast<std::size_t>(v)]) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

double ClusteringObserver::average_clustering() const {
  if (deg_.empty()) return 0.0;
  double sum = 0;
  for (vid_t v = 0; v < static_cast<vid_t>(deg_.size()); ++v)
    sum += local_clustering(v);
  return sum / static_cast<double>(deg_.size());
}

}  // namespace snap::stream
