#pragma once

#include <cstdint>
#include <vector>

#include "snap/ds/union_find.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/graph/types.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/stream/streaming_graph.hpp"

namespace snap::stream {

/// Connectivity maintained across applied batches, a first piece of the
/// dynamic-network analysis the paper lists as future work (§6).  Inserts
/// fold into the union–find as whole batches; any effective deletion may
/// split a component, which union–find cannot undo, so it marks the tracker
/// stale, and the rebuild is deferred to the next query: the cost is
/// amortized to at most one rebuild per batch no matter how many deletions
/// the batch carried or how many queries follow it.
class ComponentsObserver : public StreamObserver {
 public:
  /// Binds the tracker to `graph` (the DynamicGraph a StreamingGraph owns);
  /// seeds the union–find from its current edges.
  explicit ComponentsObserver(const DynamicGraph& graph);

  void on_batch(const AppliedBatch& batch) override;

  /// True if u and v are connected (rebuilds first when stale).
  bool connected(vid_t u, vid_t v);

  /// Number of connected components (rebuilds first when stale).
  vid_t num_components();

  [[nodiscard]] bool stale() const { return stale_; }
  [[nodiscard]] std::int64_t rebuilds() const { return rebuilds_; }

 private:
  void rebuild();

  const DynamicGraph& graph_;
  UnionFind uf_;
  bool stale_ = false;
  std::int64_t rebuilds_ = 0;
};

/// Incrementally-maintained degree distribution and maximum degree.  Tracks
/// DynamicGraph::degree semantics exactly: out-degree for directed graphs,
/// adjacency length for undirected ones (an undirected self loop contributes
/// one).  histogram()[d] is the number of degree-d vertices; the vector is
/// kept trimmed to max_degree() + 1 entries.
class DegreeStatsObserver : public StreamObserver {
 public:
  explicit DegreeStatsObserver(const DynamicGraph& graph);

  void on_batch(const AppliedBatch& batch) override;

  [[nodiscard]] eid_t max_degree() const { return max_degree_; }
  [[nodiscard]] eid_t degree(vid_t v) const {
    return deg_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(deg_.size());
  }
  [[nodiscard]] const std::vector<eid_t>& histogram() const { return hist_; }

 private:
  void bump(vid_t v, eid_t delta);

  bool directed_;
  std::vector<eid_t> deg_;
  std::vector<eid_t> hist_;
  eid_t max_degree_ = 0;
};

/// Incrementally-maintained clustering coefficients for undirected streams:
/// per-edge triangle counting on the dynamic adjacency.  Each applied batch
/// is replayed as a deterministic sequence (effective deletions in canonical
/// order, then effective insertions), with edge-presence queries answered
/// against the post-batch graph corrected by the not-yet-replayed changes —
/// so every per-edge common-neighbor count is exact even when several edges
/// of one triangle change in the same batch.
///
/// The state is one TriangleCounts, seeded by count_triangles and read
/// through its formulas, so global_clustering() and average_clustering()
/// equal metrics' {global,average}_clustering_coefficient of the pinned
/// snapshot bit for bit.  Self loops are ignored throughout, as there.
class ClusteringObserver : public StreamObserver {
 public:
  /// Undirected graphs only; throws std::invalid_argument on directed.
  /// Seeds triangle/wedge counts from the graph's current edges.
  explicit ClusteringObserver(const DynamicGraph& graph);

  void on_batch(const AppliedBatch& batch) override;

  /// Total triangles in the current graph.
  [[nodiscard]] std::int64_t triangles() const {
    return counts_.num_triangles;
  }
  /// Total wedges (open + closed paths of length 2), sum of C(deg, 2).
  [[nodiscard]] std::int64_t wedges() const { return counts_.num_wedges; }
  /// Triangles through v.
  [[nodiscard]] std::int64_t triangles_at(vid_t v) const {
    return counts_.triangles[static_cast<std::size_t>(v)];
  }
  /// Transitivity: 3 * triangles / wedges (0 when no wedges).
  [[nodiscard]] double global_clustering() const { return counts_.global(); }
  /// Watts–Strogatz local coefficient of v (0 for degree < 2).
  [[nodiscard]] double local_clustering(vid_t v) const {
    return counts_.local(v);
  }
  /// Mean local coefficient over all vertices.
  [[nodiscard]] double average_clustering() const {
    return counts_.average();
  }

 private:
  const DynamicGraph& graph_;
  TriangleCounts counts_;
};

}  // namespace snap::stream
