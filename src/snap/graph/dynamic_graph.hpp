#pragma once

#include <span>
#include <vector>

#include "snap/debug/fwd.hpp"
#include "snap/graph/types.hpp"

namespace snap {

class CSRGraph;

namespace stream {
class StreamingGraph;
}  // namespace stream

/// Dynamic graph for streaming updates (§3, "Data Representation"): one
/// strictly ascending neighbour vector per vertex, of any length, as in
/// Leskovec and Sosič's SNAP.  The paper keeps low-degree adjacencies in
/// unsorted arrays and moves hubs to treaps; measured up to R-MAT scale 20,
/// sorted rows alone were as fast on every path here and held the graph in
/// less memory (DESIGN.md §1.1).
///
/// A lookup or delete is a binary search and an insert one shift of the
/// larger entries; a row filled from empty is written once at exactly its
/// final size (StreamingGraph::apply does so for every row of a preload),
/// and the CSR snapshot copies rows without sorting them.
///
/// The structure is unweighted and stores both arcs for undirected graphs.
class DynamicGraph {
 public:
  explicit DynamicGraph(vid_t n = 0, bool directed = false);

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(rows_.size());
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

  [[nodiscard]] eid_t degree(vid_t v) const {
    return static_cast<eid_t>(rows_[static_cast<std::size_t>(v)].size());
  }

  /// Out-neighbors of v (all neighbors for undirected graphs), ascending;
  /// an undirected self loop appears once.  Valid until the next update.
  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return rows_[static_cast<std::size_t>(v)];
  }

  /// Snapshot to the static CSR representation: the image
  /// CSRGraph::from_edges builds from this graph's edges (self loops kept),
  /// byte for byte, filled straight from the sorted rows in three parallel
  /// passes (count, copy + number owned arcs, mirror ids).  Unweighted, so
  /// it holds offsets, targets, arc edge ids and edge endpoints only: 24
  /// bytes per undirected arc.  Identical at every thread count.
  [[nodiscard]] CSRGraph to_csr() const;

  /// Load all edges of a CSR graph (must share directedness).
  static DynamicGraph from_csr(const CSRGraph& g);

 private:
  // The streaming engine applies canonicalized batches one owner group at a
  // time, with every vertex's adjacency owned by exactly one thread: it
  // fills an empty row from a group itself, uses the arc primitives on any
  // other row, and fixes up m_.
  friend class stream::StreamingGraph;
  // Validators (and their mutation tests) read the raw adjacency state.
  friend struct debug::Access;

  bool directed_;
  eid_t m_ = 0;
  // Per vertex: its neighbours, strictly ascending.
  std::vector<std::vector<vid_t>> rows_;

  bool insert_arc(vid_t u, vid_t v);
  bool delete_arc(vid_t u, vid_t v);
  bool has_arc(vid_t u, vid_t v) const;
};

}  // namespace snap
