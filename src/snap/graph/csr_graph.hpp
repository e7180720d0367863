#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <utility>
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

/// The endpoints of one stored logical edge: the 16 bytes a CSRGraph keeps
/// per edge.  A weighted graph keeps the edge's weight in a parallel array.
struct EdgeEndpoints {
  vid_t u = kInvalidVid;
  vid_t v = kInvalidVid;
};

namespace detail {

/// The one weight every arc of an unweighted graph reads.
inline constexpr weight_t kUnitWeight = 1.0;

/// Input iterator over a view whose operator[] returns by value.  It holds
/// a copy of the view, so it stays valid after the view expression ends.
template <typename View>
class IndexIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = decltype(std::declval<const View&>()[0]);
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = value_type;

  IndexIterator() = default;
  IndexIterator(View view, std::size_t i) : view_(view), i_(i) {}

  value_type operator*() const { return view_[i_]; }
  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator old = *this;
    ++i_;
    return old;
  }
  friend bool operator==(const IndexIterator& a, const IndexIterator& b) {
    return a.i_ == b.i_;
  }

 private:
  View view_{};
  std::size_t i_ = 0;
};

}  // namespace detail

/// Weights aligned with a run of arcs: the stored ones, or 1.0 for every
/// arc of a graph that stores none.  Indexing has no branch: an unweighted
/// view reads the one constant through a zero index mask.
class WeightView {
 public:
  using iterator = detail::IndexIterator<WeightView>;
  using const_iterator = iterator;

  WeightView() = default;
  /// `data` null means every weight is 1.0.
  WeightView(const weight_t* data, std::size_t size)
      : data_(data != nullptr ? data : &detail::kUnitWeight),
        mask_(data != nullptr ? ~std::size_t{0} : 0),
        size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] weight_t operator[](std::size_t i) const {
    return data_[i & mask_];
  }
  [[nodiscard]] iterator begin() const { return {*this, 0}; }
  [[nodiscard]] iterator end() const { return {*this, size_}; }

 private:
  const weight_t* data_ = &detail::kUnitWeight;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The logical edges of a CSRGraph, read as Edge{u, v, w}: the stored
/// endpoints with the stored weight, or 1.0 when the graph stores none.  A
/// view, not a container: `to_list()` copies the edges out.
class EdgeView {
 public:
  using iterator = detail::IndexIterator<EdgeView>;
  using const_iterator = iterator;

  EdgeView() = default;
  EdgeView(std::span<const EdgeEndpoints> ends, WeightView weights)
      : ends_(ends), weights_(weights) {}

  [[nodiscard]] std::size_t size() const { return ends_.size(); }
  [[nodiscard]] bool empty() const { return ends_.empty(); }
  [[nodiscard]] Edge operator[](std::size_t e) const {
    return {ends_[e].u, ends_[e].v, weights_[e]};
  }
  [[nodiscard]] iterator begin() const { return {*this, 0}; }
  [[nodiscard]] iterator end() const { return {*this, size()}; }

  /// The edges as an owned list, in edge-id order.
  [[nodiscard]] EdgeList to_list() const;

  friend bool operator==(const EdgeView& a, const EdgeView& b);

 private:
  std::span<const EdgeEndpoints> ends_;
  WeightView weights_;
};

/// Static graph in Compressed Sparse Row form — the primary SNAP
/// representation (§3: "cache-friendly adjacency arrays").
///
/// Undirected graphs store both arcs of every edge; `num_edges()` is the
/// logical edge count, `num_arcs()` the stored adjacency length.  Every arc
/// carries the id of the logical edge it belongs to (`arc_edge_id`), which is
/// what lets the divisive community algorithms (GN, pBD) mark edges deleted
/// with an m-bit mask instead of rebuilding the graph.
///
/// An unweighted graph stores topology only: offsets, targets, arc edge ids
/// and {u, v} edge endpoints, 24 bytes per undirected arc.  Per-arc and
/// per-edge weights are stored only when `weighted()`; `weights(v)`,
/// `edges()` and the other weight readers yield 1.0 for a graph without them.
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
  /// DynamicGraph::to_csr.  The caller asserts the arrays are a valid CSR
  /// image exactly as `from_edges` would have produced one: offsets of size
  /// n+1 covering adj/arc_edge_ids, canonical undirected endpoints
  /// (u <= v), arc symmetry, and — when `sorted` — rows ordered by
  /// (neighbor, edge id).  A weighted graph passes per-arc and per-edge
  /// weights; an unweighted one passes both empty.  Cheap size invariants
  /// are asserted always; the full O(n+m) structural validator is the
  /// caller's to run at SNAP_CHECK_LEVEL=2 — to_csr aborts on a violation,
  /// read_binary throws, since its arrays are outside input.
  static CSRGraph from_parts(vid_t n, eid_t m, bool directed, bool weighted,
                             bool sorted, std::vector<eid_t> offsets,
                             std::vector<vid_t> adj,
                             std::vector<eid_t> arc_edge_ids,
                             std::vector<EdgeEndpoints> endpoints,
                             std::vector<weight_t> arc_weights = {},
                             std::vector<weight_t> edge_weights = {});

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
  [[nodiscard]] WeightView weights(vid_t v) const {
    return {weighted_ ? weights_.data() + offsets_[v] : nullptr,
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
  [[nodiscard]] weight_t arc_weight(eid_t a) const {
    return weighted_ ? weights_[a] : 1.0;
  }
  [[nodiscard]] eid_t arc_edge_id(eid_t a) const { return arc_edge_ids_[a]; }

  /// Logical edge e (u <= v for undirected graphs) with its weight.
  [[nodiscard]] Edge edge(eid_t e) const { return edges()[e]; }

  /// True if u has v in its adjacency (binary search when sorted).
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const;

  [[nodiscard]] eid_t max_degree() const;

  /// Sum of w(e) over logical edges.
  [[nodiscard]] weight_t total_edge_weight() const;

  /// The same edges with direction dropped (u<v, deduped) — §5: "we ignore
  /// edge directivity in the community detection algorithms".
  [[nodiscard]] CSRGraph as_undirected() const;

  /// All logical edges (endpoints + weight), in edge-id order.
  [[nodiscard]] EdgeView edges() const {
    return {endpoints_,
            WeightView(weighted_ ? edge_weights_.data() : nullptr,
                       endpoints_.size())};
  }

  /// Read-only views of the flat CSR arrays, for consumers that stream the
  /// whole image (binary snapshots, the compressed/partitioned
  /// representations) rather than walking per-vertex spans.
  [[nodiscard]] std::span<const eid_t> row_offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const vid_t> adjacency() const { return adj_; }
  /// Per-arc weights; empty for an unweighted graph.
  [[nodiscard]] std::span<const weight_t> arc_weights() const {
    return weights_;
  }
  [[nodiscard]] std::span<const eid_t> arc_edge_id_array() const {
    return arc_edge_ids_;
  }
  /// Stored endpoints of the logical edges, in edge-id order.
  [[nodiscard]] std::span<const EdgeEndpoints> endpoints() const {
    return endpoints_;
  }
  /// True if every row is sorted by (neighbor, edge id).
  [[nodiscard]] bool adjacency_sorted() const { return sorted_; }

  /// Bytes of the stored arrays: 8(n + 1) + 16 per arc + 16 per edge, plus
  /// 8 per arc and 8 per edge when weighted.
  [[nodiscard]] std::size_t byte_size() const;

 private:
  // Validators (and their mutation tests) read the raw arrays directly.
  friend struct debug::Access;

  vid_t n_ = 0;
  eid_t m_ = 0;
  bool directed_ = false;
  bool weighted_ = false;
  bool sorted_ = false;
  std::vector<eid_t> offsets_;            // n+1
  std::vector<vid_t> adj_;                // arcs
  std::vector<eid_t> arc_edge_ids_;       // per arc -> logical edge id
  std::vector<EdgeEndpoints> endpoints_;  // per logical edge
  // Weighted graphs only; both empty otherwise.
  std::vector<weight_t> weights_;         // per arc
  std::vector<weight_t> edge_weights_;    // per logical edge
};

}  // namespace snap
