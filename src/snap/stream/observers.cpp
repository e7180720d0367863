#include "snap/stream/observers.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "snap/debug/validate.hpp"

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
  SNAP_VALIDATE(uf_);
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
  counts_ = count_triangles(graph);
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
  std::vector<eid_t>& deg = counts_.degree;
  std::vector<std::int64_t>& tri = counts_.triangles;
  if (static_cast<std::size_t>(batch.num_vertices) > deg.size()) {
    deg.resize(static_cast<std::size_t>(batch.num_vertices), 0);
    tri.resize(static_cast<std::size_t>(batch.num_vertices), 0);
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
    const vid_t a = deg[static_cast<std::size_t>(u)] <=
                            deg[static_cast<std::size_t>(v)]
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
    counts_.num_triangles -= c;
    tri[static_cast<std::size_t>(u)] -= c;
    tri[static_cast<std::size_t>(v)] -= c;
    for (vid_t w : commons) --tri[static_cast<std::size_t>(w)];
    counts_.num_wedges -= (deg[static_cast<std::size_t>(u)] - 1) +
                          (deg[static_cast<std::size_t>(v)] - 1);
    --deg[static_cast<std::size_t>(u)];
    --deg[static_cast<std::size_t>(v)];
    del_pending[i] = 0;
  }
  for (std::uint32_t i = 0; i < ins.size(); ++i) {
    const auto [u, v] = ins[i];
    count_commons(u, v);
    const auto c = static_cast<std::int64_t>(commons.size());
    counts_.num_triangles += c;
    tri[static_cast<std::size_t>(u)] += c;
    tri[static_cast<std::size_t>(v)] += c;
    for (vid_t w : commons) ++tri[static_cast<std::size_t>(w)];
    counts_.num_wedges += deg[static_cast<std::size_t>(u)] +
                          deg[static_cast<std::size_t>(v)];
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
    ins_pending[i] = 0;
  }
}

}  // namespace snap::stream
