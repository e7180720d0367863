#pragma once

#include <cstdint>
#include <vector>

#include "snap/graph/csr_graph.hpp"

namespace snap {

/// Average vertex degree (arcs / vertices for directed graphs, 2m/n for
/// undirected).
double average_degree(const CSRGraph& g);

/// Histogram of vertex degrees: entry d holds the number of degree-d
/// vertices.
std::vector<eid_t> degree_histogram(const CSRGraph& g);

/// The triangle census every clustering coefficient reads, with the one copy
/// of the three coefficient formulas.  Self loops are ignored: degrees here
/// count distinct neighbours other than the vertex itself.
struct TriangleCounts {
  std::vector<eid_t> degree;            ///< self-loop-free degree per vertex
  std::vector<std::int64_t> triangles;  ///< triangles through each vertex
  std::int64_t num_triangles = 0;
  std::int64_t num_wedges = 0;  ///< Σ C(degree, 2): paths of length 2

  /// Watts–Strogatz local coefficient of v, 2 t(v) / (d (d − 1)); 0 for d < 2.
  [[nodiscard]] double local(vid_t v) const;
  /// Mean of local(v), summed in ascending v on one thread; 0 when n = 0.
  [[nodiscard]] double average() const;
  /// Transitivity, 3 * triangles / wedges; 0 when there are no wedges.
  [[nodiscard]] double global() const;
};

/// Counts every triangle {u < v < w} once, at its (u, v) edge, by
/// intersecting the two rows above v; vertices run in parallel and credit
/// the three corners with integer adds, so the result is identical at every
/// thread count.  Needs only num_vertices() and ascending neighbors(v)
/// spans: instantiated for CSRGraph and DynamicGraph.  Requires the sorted
/// rows of an undirected simple graph; self loops (two row entries per loop
/// in a CSRGraph, one in a DynamicGraph) are allowed and ignored.
template <typename G>
TriangleCounts count_triangles(const G& g);

/// Local clustering coefficient of every vertex: the fraction of a vertex's
/// neighbor pairs that are themselves connected.  Degree < 2 vertices get 0.
/// Requires an undirected graph with sorted adjacency.
std::vector<double> local_clustering_coefficients(const CSRGraph& g);

/// Mean of the local clustering coefficients (Watts–Strogatz "network
/// clustering coefficient").
double average_clustering_coefficient(const CSRGraph& g);

/// Global (transitivity) clustering coefficient: 3 * triangles / wedges.
double global_clustering_coefficient(const CSRGraph& g);

/// Rich-club coefficient φ(k): density of the subgraph induced by vertices
/// of degree > k, for every k up to the max degree (§3's topological
/// metrics).  φ(k) is 0 where fewer than 2 such vertices exist.
std::vector<double> rich_club_coefficients(const CSRGraph& g);

/// Newman's degree assortativity coefficient r ∈ [-1, 1]: the Pearson
/// correlation of the degrees at the two endpoints of an edge — "an
/// indicator of community structure in a network" (§3).
double assortativity_coefficient(const CSRGraph& g);

/// Average neighbor connectivity: for every degree k, the mean degree of the
/// neighbors of degree-k vertices — "an indicator of whether vertices of a
/// given degree preferentially connect to high- or low-degree vertices" (§3).
/// Entry k is 0 when no degree-k vertex exists.
std::vector<double> average_neighbor_connectivity(const CSRGraph& g);

/// One-stop structural summary used by the exploratory-analysis examples.
struct GraphSummary {
  vid_t n = 0;
  eid_t m = 0;
  bool directed = false;
  double avg_degree = 0;
  eid_t max_degree = 0;
  double avg_clustering = 0;
  double assortativity = 0;
  vid_t num_components = 0;
  vid_t giant_component_size = 0;
  double approx_avg_path_length = 0;  ///< sampled; 0 for empty graphs
  std::int64_t approx_diameter = 0;   ///< max observed BFS eccentricity
};

/// Compute the summary (path statistics sampled from `path_samples` sources).
GraphSummary summarize(const CSRGraph& g, vid_t path_samples = 16,
                       std::uint64_t seed = 1);

}  // namespace snap
