#include "snap/kernels/bfs.hpp"

#include "snap/debug/check.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/kernels/frontier.hpp"

namespace snap {

namespace bfs_detail {

bool start(BFSResult& r, vid_t n, vid_t source) {
  r.parent.assign(static_cast<std::size_t>(n), kInvalidVid);
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.num_visited = 0;
  r.num_levels = 0;
  if (n == 0) return false;
  SNAP_ASSERT(source >= 0 && source < n, "bfs: source ", source,
              " out of [0, ", n, ")");
  r.parent[static_cast<std::size_t>(source)] = source;
  r.dist[static_cast<std::size_t>(source)] = 0;
  r.num_visited = 1;
  return true;
}

}  // namespace bfs_detail

BFSResult bfs_serial(const CSRGraph& g, vid_t source) {
  BFSResult r;
  if (!bfs_detail::start(r, g.num_vertices(), source)) return r;
  std::vector<vid_t> frontier{source}, next;
  std::int64_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (vid_t u : frontier) {
      for (vid_t v : g.neighbors(u)) {
        if (r.dist[v] < 0) {
          r.dist[v] = level;
          r.parent[v] = u;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    r.num_visited += static_cast<vid_t>(frontier.size());
  }
  r.num_levels = level - 1;
  return r;
}

BFSResult bfs_bounded(const CSRGraph& g, vid_t source,
                      std::int64_t max_depth) {
  HybridBFSOptions opts;
  opts.max_depth = max_depth;
  return BfsEngine().run(g, source, opts);
}

BFSResult bfs(const CSRGraph& g, vid_t source) {
  return BfsEngine().run(g, source);
}

BFSResult bfs_push(const CSRGraph& g, vid_t source) {
  HybridBFSOptions opts;
  opts.enable_pull = false;
  return BfsEngine().run(g, source, opts);
}

BFSResult bfs_hybrid(const CSRGraph& g, vid_t source,
                     const HybridBFSOptions& opts,
                     std::vector<BfsLevelStats>* trace) {
  return BfsEngine().run(g, source, opts, trace);
}

BFSResult bfs_compressed(const CompressedCSR& g, vid_t source) {
  return BfsEngine().run(g, source);
}

BFSResult bfs_masked(const CSRGraph& g, vid_t source,
                     const std::vector<std::uint8_t>& edge_alive) {
  BFSResult r;
  if (!bfs_detail::start(r, g.num_vertices(), source)) return r;
  std::vector<vid_t> frontier{source}, next;
  std::int64_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (vid_t u : frontier) {
      const auto nb = g.neighbors(u);
      const auto ids = g.edge_ids(u);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (!edge_alive[static_cast<std::size_t>(ids[i])]) continue;
        const vid_t v = nb[i];
        if (r.dist[v] < 0) {
          r.dist[v] = level;
          r.parent[v] = u;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    r.num_visited += static_cast<vid_t>(frontier.size());
  }
  r.num_levels = level - 1;
  return r;
}

}  // namespace snap
