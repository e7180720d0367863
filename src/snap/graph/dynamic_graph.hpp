#pragma once

#include <vector>

#include "snap/debug/fwd.hpp"
#include "snap/ds/treap.hpp"
#include "snap/graph/types.hpp"

namespace snap {

class CSRGraph;

namespace stream {
class StreamingGraph;
}  // namespace stream

/// Dynamic graph with the degree-hybrid adjacency layout of §3 ("Data
/// Representation"): small-world degree distributions are heavily skewed, so
/// adjacencies of the many low-degree vertices live in simple unsorted
/// resizable arrays, while adjacencies of the few high-degree vertices are
/// promoted to treaps, which support fast insertion, deletion and search.
///
/// The structure is unweighted and stores both arcs for undirected graphs.
class DynamicGraph {
 public:
  /// `promote_threshold` — degree at which a vertex's adjacency is migrated
  /// from the flat array to a treap.
  explicit DynamicGraph(vid_t n = 0, bool directed = false,
                        eid_t promote_threshold = 128);

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(flat_.size());
  }
  [[nodiscard]] eid_t num_edges() const { return m_; }
  [[nodiscard]] bool directed() const { return directed_; }

  /// Append a fresh isolated vertex; returns its id.
  vid_t add_vertex();

  /// Grow to at least n vertices (no-op if already that large).
  void ensure_vertices(vid_t n);

  /// Insert edge (u, v); returns false if it already exists.
  bool insert_edge(vid_t u, vid_t v);

  /// Delete edge (u, v); returns false if absent.
  bool delete_edge(vid_t u, vid_t v);

  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const;

  [[nodiscard]] eid_t degree(vid_t v) const;

  /// True if v's adjacency currently lives in a treap.
  [[nodiscard]] bool is_promoted(vid_t v) const { return !treap_[v].empty(); }

  /// Visit every neighbor of v: a flat row in insertion order, a treap in
  /// ascending order.  The visitor inlines into the adjacency walk, which is
  /// what the streaming observers' and to_csr's hot loops want.
  template <typename Fn>
  void for_each_neighbor(vid_t v, Fn&& fn) const {
    const auto s = static_cast<std::size_t>(v);
    if (!treap_[s].empty()) {
      treap_[s].for_each([&fn](std::int64_t k) { fn(static_cast<vid_t>(k)); });
    } else {
      for (vid_t u : flat_[s]) fn(u);
    }
  }

  /// Snapshot to the static CSR representation: the image
  /// CSRGraph::from_edges builds from this graph's edges (self loops kept),
  /// byte for byte, filled straight from the sorted rows in three parallel
  /// passes (count, copy + number owned arcs, mirror ids).  Unweighted, so
  /// it holds offsets, targets, arc edge ids and edge endpoints only: 24
  /// bytes per undirected arc.  Identical at every thread count.
  [[nodiscard]] CSRGraph to_csr() const;

  /// Load all edges of a CSR graph (must share directedness).
  static DynamicGraph from_csr(const CSRGraph& g, eid_t promote_threshold = 128);

 private:
  // The streaming engine applies canonicalized batches arc-by-arc, with every
  // vertex's adjacency owned by exactly one thread; it needs the arc
  // primitives and fixes up m_ itself.
  friend class stream::StreamingGraph;
  // Validators (and their mutation tests) read the raw adjacency state.
  friend struct debug::Access;

  bool directed_;
  eid_t promote_threshold_;
  eid_t m_ = 0;
  // Per vertex: flat adjacency until promoted, then the treap owns it.
  std::vector<std::vector<vid_t>> flat_;
  std::vector<Treap> treap_;

  bool insert_arc(vid_t u, vid_t v);
  bool delete_arc(vid_t u, vid_t v);
  bool has_arc(vid_t u, vid_t v) const;
};

}  // namespace snap
