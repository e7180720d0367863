#include "snap/graph/reorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "snap/kernels/bfs.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

namespace {

/// BFS-visitation sort key: (distance with unreached last, old id).  A total
/// order, so the permutation is a pure function of the distance array.
std::vector<vid_t> bfs_order(const CSRGraph& g, const BFSResult& b) {
  std::vector<vid_t> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), vid_t{0});
  auto key = [&](vid_t v) {
    const auto d = b.dist[static_cast<std::size_t>(v)];
    return d < 0 ? std::numeric_limits<std::int64_t>::max() : d;
  };
  parallel::parallel_sort(order.begin(), order.end(), [&](vid_t x, vid_t y) {
    const auto kx = key(x);
    const auto ky = key(y);
    if (kx != ky) return kx < ky;
    return x < y;
  });
  return order;
}

}  // namespace

ReorderedGraph relabel(const CSRGraph& g,
                       const std::vector<vid_t>& new_to_old) {
  const vid_t n = g.num_vertices();
  if (new_to_old.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("relabel: permutation size mismatch");
  ReorderedGraph r;
  r.new_to_old = new_to_old;
  r.old_to_new.assign(new_to_old.size(), kInvalidVid);

  // Parallel inverse build + validation.  Out-of-range entries are detected
  // directly; duplicates (and by pigeonhole, missing values) surface as an
  // inverse that fails the round-trip check below — a racy double-write to
  // old_to_new[old] leaves at most one of the duplicates consistent.
  std::atomic<bool> out_of_range{false};
  parallel::parallel_for(n, [&](vid_t i) {
    const vid_t old = new_to_old[static_cast<std::size_t>(i)];
    if (old < 0 || old >= n) {
      out_of_range.store(true, std::memory_order_relaxed);
      return;
    }
    r.old_to_new[static_cast<std::size_t>(old)] = i;
  });
  if (out_of_range.load(std::memory_order_relaxed))
    throw std::invalid_argument("relabel: not a permutation");
  std::atomic<bool> not_bijective{false};
  parallel::parallel_for(n, [&](vid_t i) {
    const vid_t old = new_to_old[static_cast<std::size_t>(i)];
    if (r.old_to_new[static_cast<std::size_t>(old)] != i)
      not_bijective.store(true, std::memory_order_relaxed);
  });
  if (not_bijective.load(std::memory_order_relaxed))
    throw std::invalid_argument("relabel: not a permutation");

  // Permutation apply: map every logical edge's endpoints — embarrassingly
  // parallel.  The CSR rebuild runs with dedupe/self-loop-removal off so
  // the edge multiset (and every logical edge id) survives verbatim.
  const EdgeView src = g.edges();
  EdgeList edges(src.size());
  parallel::parallel_for(src.size(), [&](std::size_t e) {
    const Edge in = src[e];
    edges[e] = Edge{r.old_to_new[static_cast<std::size_t>(in.u)],
                    r.old_to_new[static_cast<std::size_t>(in.v)], in.w};
  });
  BuildOptions opts;
  opts.remove_self_loops = false;
  opts.dedupe = false;
  r.graph = CSRGraph::from_edges(n, edges, g.directed(), opts);
  return r;
}

ReorderedGraph relabel_by_degree(const CSRGraph& g) {
  std::vector<vid_t> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), vid_t{0});
  parallel::parallel_sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    const eid_t da = g.degree(a);
    const eid_t db = g.degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  return relabel(g, order);
}

ReorderedGraph relabel_by_bfs(const CSRGraph& g, vid_t source) {
  const BFSResult b = bfs_serial(g, source);
  return relabel(g, bfs_order(g, b));
}

ReorderedGraph relabel_by_hub_cluster(const CSRGraph& g,
                                      const HubClusterParams& params) {
  const vid_t n = g.num_vertices();
  if (n == 0) return relabel(g, {});
  std::vector<vid_t> by_degree(static_cast<std::size_t>(n));
  std::iota(by_degree.begin(), by_degree.end(), vid_t{0});
  parallel::parallel_sort(by_degree.begin(), by_degree.end(),
                          [&](vid_t a, vid_t b) {
                            const eid_t da = g.degree(a);
                            const eid_t db = g.degree(b);
                            if (da != db) return da > db;
                            return a < b;
                          });
  const auto hubs = static_cast<std::size_t>(std::clamp<double>(
      params.hub_fraction * static_cast<double>(n), 1.0,
      static_cast<double>(n)));
  std::vector<std::uint8_t> is_hub(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < hubs; ++i)
    is_hub[static_cast<std::size_t>(by_degree[i])] = 1;

  const vid_t source =
      params.source == kInvalidVid ? by_degree[0] : params.source;
  const BFSResult b = bfs_serial(g, source);

  // Hub block first (descending degree), then the tail in BFS order.
  std::vector<vid_t> order(by_degree.begin(),
                           by_degree.begin() + static_cast<std::ptrdiff_t>(hubs));
  order.reserve(static_cast<std::size_t>(n));
  for (const vid_t v : bfs_order(g, b))
    if (!is_hub[static_cast<std::size_t>(v)]) order.push_back(v);
  return relabel(g, order);
}

}  // namespace snap
