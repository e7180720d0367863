#pragma once

#include <span>
#include <vector>

#include "snap/debug/fwd.hpp"
#include "snap/graph/types.hpp"

namespace snap {

/// Options controlling CSR construction from an edge list.
struct BuildOptions {
  bool remove_self_loops = true;
  bool dedupe = true;           ///< collapse parallel edges (smallest weight wins)
  bool sort_adjacency = true;   ///< sort each vertex's neighbors ascending
  /// Construction pipeline; `kAuto` goes parallel from 2^15 input edges.
  ExecPath path = ExecPath::kAuto;
};

/// Static graph in Compressed Sparse Row form — the primary SNAP
/// representation (§3: "cache-friendly adjacency arrays").
///
/// Undirected graphs store both arcs of every edge; `num_edges()` is the
/// logical edge count, `num_arcs()` the stored adjacency length.  Every arc
/// carries the id of the logical edge it belongs to (`arc_edge_id`), which is
/// what lets the divisive community algorithms (GN, pBD) mark edges deleted
/// with an m-bit mask instead of rebuilding the graph.
class CSRGraph {
 public:
  CSRGraph() = default;

  /// Build from an edge list.  Vertex ids must lie in [0, n).
  ///
  /// Large inputs run a fully parallel pipeline (per-thread prepare buffers
  /// + prefix-sum compaction, sample-sort dedupe, per-thread degree
  /// histograms, atomic-cursor placement); small inputs and
  /// `ExecPath::kSerial` run the serial reference builder.  Both paths
  /// produce byte-identical arrays (offsets/adj/weights/arc_edge_ids) at
  /// every thread count when `sort_adjacency` is on: dedupe orders edges by
  /// the total key (u, v, w) and the adjacency sort keys on
  /// (neighbor, edge id), so no step depends on scheduling.
  static CSRGraph from_edges(vid_t n, const EdgeList& edges, bool directed,
                             const BuildOptions& opts = {});

  /// Adopt prebuilt CSR arrays without any normalization, dedupe, or sort —
  /// the O(read) path behind the binary snapshot cache (io::binary_io) and
  /// the direct relabeling transforms.  The caller asserts the arrays are a
  /// valid CSR image exactly as `from_edges` would have produced one:
  /// offsets of size n+1 covering adj/weights/arc_edge_ids, canonical
  /// undirected endpoints (u <= v), arc symmetry, and — when `sorted` —
  /// rows ordered by (neighbor, edge id).  Cheap size invariants are
  /// asserted always; the full O(n+m) structural validator runs at
  /// SNAP_CHECK_LEVEL=2.
  static CSRGraph from_parts(vid_t n, eid_t m, bool directed, bool weighted,
                             bool sorted, std::vector<eid_t> offsets,
                             std::vector<vid_t> adj,
                             std::vector<weight_t> weights,
                             std::vector<eid_t> arc_edge_ids,
                             EdgeList edge_endpoints);

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] eid_t num_edges() const { return m_; }
  [[nodiscard]] eid_t num_arcs() const {
    return static_cast<eid_t>(adj_.size());
  }
  [[nodiscard]] bool directed() const { return directed_; }
  [[nodiscard]] bool weighted() const { return weighted_; }

  [[nodiscard]] eid_t degree(vid_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Out-neighbors of v (all neighbors for undirected graphs).
  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Visit v's out-neighbors in stored order while `f` returns true — the
  /// AdjacencyView visitor (snap/graph/adjacency.hpp).
  template <typename F>
  void for_each_neighbor_while(vid_t v, F&& f) const {
    for (const vid_t u : neighbors(v))
      if (!f(u)) return;
  }

  /// Weights aligned with neighbors(v).  All 1.0 for unweighted graphs.
  [[nodiscard]] std::span<const weight_t> weights(vid_t v) const {
    return {weights_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Logical edge ids aligned with neighbors(v); for an undirected graph the
  /// two arcs of one edge share an id in [0, num_edges()).
  [[nodiscard]] std::span<const eid_t> edge_ids(vid_t v) const {
    return {arc_edge_ids_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// Arc range [offsets(v), offsets(v+1)) into the flat arrays.
  [[nodiscard]] eid_t arc_begin(vid_t v) const { return offsets_[v]; }
  [[nodiscard]] eid_t arc_end(vid_t v) const { return offsets_[v + 1]; }
  [[nodiscard]] vid_t arc_target(eid_t a) const { return adj_[a]; }
  [[nodiscard]] weight_t arc_weight(eid_t a) const { return weights_[a]; }
  [[nodiscard]] eid_t arc_edge_id(eid_t a) const { return arc_edge_ids_[a]; }

  /// Endpoints of logical edge e (u < v for undirected graphs).
  [[nodiscard]] Edge edge(eid_t e) const { return edge_endpoints_[e]; }

  /// True if u has v in its adjacency (binary search when sorted).
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const;

  [[nodiscard]] eid_t max_degree() const;

  /// Sum of w(e) over logical edges.
  [[nodiscard]] weight_t total_edge_weight() const;

  /// The same edges with direction dropped (u<v, deduped) — §5: "we ignore
  /// edge directivity in the community detection algorithms".
  [[nodiscard]] CSRGraph as_undirected() const;

  /// All logical edges (endpoints + weight).
  [[nodiscard]] const EdgeList& edges() const { return edge_endpoints_; }

  /// Read-only views of the flat CSR arrays, for consumers that stream the
  /// whole image (binary snapshots, the compressed/partitioned
  /// representations) rather than walking per-vertex spans.
  [[nodiscard]] std::span<const eid_t> row_offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const vid_t> adjacency() const { return adj_; }
  [[nodiscard]] std::span<const weight_t> arc_weights() const {
    return weights_;
  }
  [[nodiscard]] std::span<const eid_t> arc_edge_id_array() const {
    return arc_edge_ids_;
  }
  /// True if every row is sorted by (neighbor, edge id).
  [[nodiscard]] bool adjacency_sorted() const { return sorted_; }

 private:
  // Validators (and their mutation tests) read the raw arrays directly.
  friend struct debug::Access;

  vid_t n_ = 0;
  eid_t m_ = 0;
  bool directed_ = false;
  bool weighted_ = false;
  bool sorted_ = false;
  std::vector<eid_t> offsets_;        // n+1
  std::vector<vid_t> adj_;            // arcs
  std::vector<weight_t> weights_;     // per arc
  std::vector<eid_t> arc_edge_ids_;   // per arc -> logical edge id
  EdgeList edge_endpoints_;           // per logical edge
};

}  // namespace snap
