#include "snap/graph/dynamic_graph.hpp"

#include <algorithm>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

DynamicGraph::DynamicGraph(vid_t n, bool directed, eid_t promote_threshold)
    : directed_(directed),
      promote_threshold_(std::max<eid_t>(promote_threshold, 2)),
      flat_(static_cast<std::size_t>(n)),
      treap_(static_cast<std::size_t>(n)) {}

vid_t DynamicGraph::add_vertex() {
  flat_.emplace_back();
  treap_.emplace_back();
  return static_cast<vid_t>(flat_.size()) - 1;
}

void DynamicGraph::ensure_vertices(vid_t n) {
  if (n <= num_vertices()) return;
  flat_.resize(static_cast<std::size_t>(n));
  treap_.resize(static_cast<std::size_t>(n));
}

bool DynamicGraph::insert_arc(vid_t u, vid_t v) {
  if (!treap_[u].empty()) return treap_[u].insert(v);
  auto& a = flat_[u];
  if (std::find(a.begin(), a.end(), v) != a.end()) return false;
  a.push_back(v);
  if (static_cast<eid_t>(a.size()) > promote_threshold_) {
    // Promote: migrate the flat array into a treap.
    std::sort(a.begin(), a.end());
    treap_[u] = Treap::from_sorted(a);
    a.clear();
    a.shrink_to_fit();
  }
  return true;
}

bool DynamicGraph::delete_arc(vid_t u, vid_t v) {
  if (!treap_[u].empty()) return treap_[u].erase(v);
  auto& a = flat_[u];
  auto it = std::find(a.begin(), a.end(), v);
  if (it == a.end()) return false;
  *it = a.back();
  a.pop_back();
  return true;
}

bool DynamicGraph::has_arc(vid_t u, vid_t v) const {
  if (!treap_[u].empty()) return treap_[u].contains(v);
  const auto& a = flat_[u];
  return std::find(a.begin(), a.end(), v) != a.end();
}

bool DynamicGraph::insert_edge(vid_t u, vid_t v) {
  if (has_arc(u, v)) return false;
  const bool fwd = insert_arc(u, v);
  SNAP_DCHECK(fwd, "arc (", u, ",", v, ") vanished between has_arc and insert");
  if (!directed_ && u != v) {
    const bool mirror = insert_arc(v, u);
    SNAP_DCHECK(mirror, "mirror arc (", v, ",", u,
                ") already present: adjacency asymmetry");
  }
  ++m_;
  return true;
}

bool DynamicGraph::delete_edge(vid_t u, vid_t v) {
  if (!delete_arc(u, v)) return false;
  if (!directed_ && u != v) {
    const bool mirror = delete_arc(v, u);
    SNAP_DCHECK(mirror, "mirror arc (", v, ",", u,
                ") missing on delete: adjacency asymmetry");
  }
  --m_;
  return true;
}

bool DynamicGraph::has_edge(vid_t u, vid_t v) const { return has_arc(u, v); }

eid_t DynamicGraph::degree(vid_t v) const {
  return treap_[v].empty() ? static_cast<eid_t>(flat_[v].size())
                           : static_cast<eid_t>(treap_[v].size());
}

CSRGraph DynamicGraph::to_csr() const {
  // The image CSRGraph::from_edges builds from this graph's edge list (self
  // loops kept), filled straight from the rows: from_edges numbers the
  // logical edges in (u, v) order, u <= v when undirected, and stores both
  // arcs of every edge — an undirected self loop as two arcs u -> u.
  const vid_t n = num_vertices();

  // Pass 1: each row's CSR length and the logical edges it owns — every arc
  // when directed, else the arcs u -> v with v >= u.
  std::vector<eid_t> len(static_cast<std::size_t>(n));
  std::vector<eid_t> own(static_cast<std::size_t>(n));
  parallel::parallel_for_dynamic(n, [&](vid_t u) {
    eid_t row_len = 0;
    eid_t owned = 0;
    for_each_neighbor(u, [&](vid_t v) {
      row_len += !directed_ && v == u ? 2 : 1;
      owned += directed_ || v >= u ? 1 : 0;
    });
    len[u] = row_len;
    own[u] = owned;
  });
  std::vector<eid_t> off, first_edge;
  parallel::exclusive_prefix_sum(len, off);
  parallel::exclusive_prefix_sum(own, first_edge);
  const eid_t m = first_edge[n];
  const auto arcs = static_cast<std::size_t>(off[n]);

  // Pass 2: copy each row sorted (treaps walk in order; flat rows hold at
  // most promote_threshold_ entries and sort in place), then number the
  // owned arcs — a sorted suffix of the row — in (u, v) order.  An
  // undirected self loop's twin arc shares its edge id.
  std::vector<vid_t> adj(arcs);
  std::vector<eid_t> ids(arcs);
  std::vector<EdgeEndpoints> ends(static_cast<std::size_t>(m));
  parallel::parallel_for_dynamic(n, [&](vid_t u) {
    const auto row = adj.begin() + off[u];
    const auto end = adj.begin() + off[u + 1];
    auto at = row;
    for_each_neighbor(u, [&](vid_t v) {
      *at++ = v;
      if (!directed_ && v == u) *at++ = v;
    });
    SNAP_DCHECK(at == end, "row ", u, " outgrew its pass-1 length");
    if (!is_promoted(u)) std::sort(row, end);
    const eid_t lo =
        (directed_ ? row : std::lower_bound(row, end, u)) - adj.begin();
    eid_t e = first_edge[u];
    for (eid_t a = lo; a < off[u + 1]; ++a) {
      if (a > lo && adj[a] == adj[a - 1]) {
        ids[a] = ids[a - 1];
        continue;
      }
      ids[a] = e;
      ends[e++] = {u, adj[a]};
    }
    SNAP_DCHECK(e == first_edge[u + 1], "row ", u, " numbered ",
                e - first_edge[u], " owned arcs, pass 1 counted ",
                first_edge[u + 1] - first_edge[u]);
  });

  // Pass 3 (undirected): an arc u -> v with v < u carries the id that
  // v -> u got in pass 2, found by binary search in v's sorted row.
  if (!directed_) {
    parallel::parallel_for_dynamic(n, [&](vid_t u) {
      for (eid_t a = off[u]; a < off[u + 1] && adj[a] < u; ++a) {
        const vid_t v = adj[a];
        const auto mirror = std::lower_bound(adj.begin() + off[v],
                                             adj.begin() + off[v + 1], u);
        SNAP_DCHECK(mirror != adj.begin() + off[v + 1] && *mirror == u,
                    "arc (", u, ",", v, ") has no mirror: adjacency asymmetry");
        ids[a] = ids[mirror - adj.begin()];
      }
    });
  }

  // Unweighted: the image is these four arrays and nothing else.
  CSRGraph g = CSRGraph::from_parts(n, m, directed_, /*weighted=*/false,
                                    /*sorted=*/true, std::move(off),
                                    std::move(adj), std::move(ids),
                                    std::move(ends));
  SNAP_DCHECK(g.num_edges() == m_, "to_csr emitted ", g.num_edges(),
              " edges but the dynamic graph tracks ", m_);
  return g;
}

DynamicGraph DynamicGraph::from_csr(const CSRGraph& g, eid_t promote_threshold) {
  DynamicGraph d(g.num_vertices(), g.directed(), promote_threshold);
  for (const Edge& e : g.edges()) d.insert_edge(e.u, e.v);
  SNAP_VALIDATE(d);
  return d;
}

}  // namespace snap
