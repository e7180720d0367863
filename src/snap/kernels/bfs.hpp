#pragma once

#include <cstdint>
#include <vector>

#include "snap/graph/csr_graph.hpp"

namespace snap {

class CompressedCSR;

/// Result of a breadth-first traversal.
struct BFSResult {
  std::vector<vid_t> parent;        ///< parent in the BFS tree; kInvalidVid if unreached (source's parent is itself)
  std::vector<std::int64_t> dist;   ///< hop distance; -1 if unreached
  vid_t num_visited = 0;
  std::int64_t num_levels = 0;
};

/// Tuning knobs for the direction-optimizing (push/pull) traversal.
/// Defaults follow Beamer et al.: switch to bottom-up pull when the
/// frontier's out-arcs exceed 1/alpha of the still-unexplored arcs, and
/// return to top-down push once the frontier is shrinking and smaller than
/// n/beta vertices.
struct HybridBFSOptions {
  double alpha = 15.0;  ///< push->pull when frontier_arcs * alpha > unexplored arcs
  double beta = 18.0;   ///< pull->push when shrinking and frontier_size * beta < n
  /// Pull is never attempted below this many frontier arcs: on always-sparse
  /// shapes (paths, trees) the tail of the search would otherwise flip to
  /// pull and pay an O(n) scan per level for nothing.
  eid_t min_pull_arcs = 256;
  std::int64_t max_depth = -1;  ///< >= 0: depth cutoff (bfs_bounded semantics)
  bool enable_pull = true;      ///< false forces the arc-balanced push path
};

/// Per-level record of what the hybrid engine did — surfaced so benches and
/// tests can audit the push/pull decisions.
struct BfsLevelStats {
  std::int64_t level = 0;     ///< 1-based level expanded
  bool pull = false;          ///< true if this level ran bottom-up
  vid_t frontier_vertices = 0;  ///< frontier size entering the level
  eid_t frontier_arcs = 0;      ///< out-arcs of that frontier
  vid_t discovered = 0;         ///< vertices claimed at this level
};

// Every entry point below shares one rule: on an empty graph (n = 0) it
// returns the empty result, otherwise `source` must lie in [0, n)
// (SNAP_ASSERT).

/// Level-synchronous parallel BFS (§3).  Now runs the direction-optimizing
/// engine: top-down levels are arc-balanced push (frontier arcs split evenly
/// across threads), dense middle levels of low-diameter graphs switch to a
/// bottom-up bitmap pull.  Distances are identical to bfs_serial; parent
/// choices may differ between runs (any valid BFS tree).
BFSResult bfs(const CSRGraph& g, vid_t source);

/// The paper's original arc-balanced push-only BFS (no pull), kept as the
/// baseline the benches compare the hybrid against.
BFSResult bfs_push(const CSRGraph& g, vid_t source);

/// Direction-optimizing BFS with explicit knobs and an optional per-level
/// decision trace.
BFSResult bfs_hybrid(const CSRGraph& g, vid_t source,
                     const HybridBFSOptions& opts = {},
                     std::vector<BfsLevelStats>* trace = nullptr);

/// bfs() over the delta/varint-compressed adjacency
/// (snap/graph/compressed_csr.hpp): the same engine instantiated on the
/// other layout, with the same alpha/beta rule, arc-balanced push and
/// pull-disabled-on-directed guard.  Distances, visited and level counts
/// equal bfs_serial's on the source graph; the parent array is any valid
/// BFS tree.
BFSResult bfs_compressed(const CompressedCSR& g, vid_t source);

/// Reference serial BFS (used for validation and for tiny subproblems).
BFSResult bfs_serial(const CSRGraph& g, vid_t source);

/// Depth-limited BFS — the "path-limited search" paradigm of §3, in which
/// multiple bounded searches are executed concurrently and aggregated
/// (pLA's cluster growth is its main client).  Vertices beyond `max_depth`
/// hops stay unreached.  Accounting is pinned to the truncated-oracle rule:
/// `dist` equals bfs_serial's wherever bfs_serial's dist <= max_depth (and
/// -1 beyond), `num_visited` counts exactly those vertices, and
/// `num_levels` is the deepest distance actually assigned,
/// i.e. min(eccentricity, max_depth).
BFSResult bfs_bounded(const CSRGraph& g, vid_t source, std::int64_t max_depth);

/// BFS over the subgraph of edges whose logical id is still alive
/// (`edge_alive[g.arc_edge_id(a)] != 0`).  Restricted to vertices with
/// `vertex_ok[v] != 0` when `vertex_ok` is non-empty.  This is the traversal
/// the divisive community algorithms run after marking edges deleted.
BFSResult bfs_masked(const CSRGraph& g, vid_t source,
                     const std::vector<std::uint8_t>& edge_alive);

namespace bfs_detail {

/// The entry rule above, shared by every traversal: size `r` for n vertices
/// with nothing reached and return false when n = 0; otherwise assert the
/// source, record it as visited at depth 0, and return true.
bool start(BFSResult& r, vid_t n, vid_t source);

}  // namespace bfs_detail

}  // namespace snap
