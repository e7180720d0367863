#include "snap/graph/dynamic_graph.hpp"

#include <algorithm>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

namespace {

// Rows up to this length take an insert by one back-to-front pass; longer
// rows by a binary search and a memmove, which does the same shift several
// times faster.  Measured per insert-and-delete on 8-byte ids, the pass is
// as fast or faster through 48 entries, within 3% at 64, and costs 1.3x at
// 128, 1.9x at 512 and 2.5x at 4,096 (docs/ALGORITHMS.md, "Dynamic graph").
constexpr std::size_t kShortRow = 64;

}  // namespace

DynamicGraph::DynamicGraph(vid_t n, bool directed)
    : directed_(directed), rows_(static_cast<std::size_t>(n)) {}

vid_t DynamicGraph::add_vertex() {
  rows_.emplace_back();
  return static_cast<vid_t>(rows_.size()) - 1;
}

void DynamicGraph::ensure_vertices(vid_t n) {
  if (n <= num_vertices()) return;
  rows_.resize(static_cast<std::size_t>(n));
}

bool DynamicGraph::insert_arc(vid_t u, vid_t v) {
  auto& a = rows_[u];
  if (a.size() > kShortRow) {
    // A long row: a binary search, then one memmove of the larger entries.
    const auto at = std::lower_bound(a.begin(), a.end(), v);
    if (at != a.end() && *at == v) return false;
    a.insert(at, v);
    return true;
  }
  // A short row: one pass from the back moves each larger entry up a slot
  // until v's place is found, one compare per moved entry and no search
  // ahead of the shift.  An insert of a present neighbour moves them back.
  a.push_back(v);
  std::size_t at = a.size() - 1;
  for (; at > 0 && a[at - 1] > v; --at) a[at] = a[at - 1];
  if (at > 0 && a[at - 1] == v) {
    a.erase(a.begin() + static_cast<std::ptrdiff_t>(at));
    return false;
  }
  a[at] = v;
  return true;
}

bool DynamicGraph::delete_arc(vid_t u, vid_t v) {
  auto& a = rows_[u];
  const auto at = std::lower_bound(a.begin(), a.end(), v);
  if (at == a.end() || *at != v) return false;
  a.erase(at);
  return true;
}

bool DynamicGraph::has_arc(vid_t u, vid_t v) const {
  const auto& a = rows_[u];
  return std::binary_search(a.begin(), a.end(), v);
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
    for (const vid_t v : neighbors(u)) {
      row_len += !directed_ && v == u ? 2 : 1;
      owned += directed_ || v >= u ? 1 : 0;
    }
    len[u] = row_len;
    own[u] = owned;
  });
  std::vector<eid_t> off, first_edge;
  parallel::exclusive_prefix_sum(len, off);
  parallel::exclusive_prefix_sum(own, first_edge);
  const eid_t m = first_edge[n];
  const auto arcs = static_cast<std::size_t>(off[n]);

  // Pass 2: copy each row, already ascending, then number the owned arcs —
  // a sorted suffix of the row — in (u, v) order.  An undirected self
  // loop's twin arc shares its edge id.
  std::vector<vid_t> adj(arcs);
  std::vector<eid_t> ids(arcs);
  std::vector<EdgeEndpoints> ends(static_cast<std::size_t>(m));
  parallel::parallel_for_dynamic(n, [&](vid_t u) {
    const auto row = adj.begin() + off[u];
    const auto end = adj.begin() + off[u + 1];
    auto at = row;
    for (const vid_t v : neighbors(u)) {
      *at++ = v;
      if (!directed_ && v == u) *at++ = v;
    }
    SNAP_DCHECK(at == end, "row ", u, " outgrew its pass-1 length");
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
  SNAP_VALIDATE(g);
  return g;
}

DynamicGraph DynamicGraph::from_csr(const CSRGraph& g) {
  DynamicGraph d(g.num_vertices(), g.directed());
  for (const Edge& e : g.edges()) d.insert_edge(e.u, e.v);
  SNAP_VALIDATE(d);
  return d;
}

}  // namespace snap
