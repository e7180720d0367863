#pragma once

#include <vector>

#include "snap/community/clustering.hpp"
#include "snap/graph/csr_graph.hpp"

namespace snap {

/// Parameters of the synchronized label-propagation engine.
struct LabelPropParams {
  /// Sweep engine; `kAuto` goes parallel from parallel::kParallelVertexCutoff
  /// vertices.
  ExecPath path = ExecPath::kAuto;
  /// Cap on sweeps; the run also stops at the first sweep moving no vertex.
  int max_sweeps = 64;
  /// Sub-rounds per sweep, same bucketing scheme as LouvainParams: within a
  /// sub-round every relabel decision reads the frozen label state at
  /// sub-round start, accepted relabels apply in ascending vertex order.
  /// Sub-rounds are what lets synchronized propagation converge at all —
  /// fully synchronous updates oscillate on bipartite structure.
  int num_buckets = 8;
};

/// Result of label propagation: the shared CommunityResult surface (final
/// clustering, modularity via the thread-count-invariant recomputation,
/// iterations = total relabels; the dendrogram stays empty — propagation is
/// not agglomerative) plus convergence information.
struct LabelPropResult {
  CommunityResult community;
  int sweeps = 0;
  /// True iff the final sweep moved no vertex, i.e. the labeling is a
  /// plurality fixed point (see is_plurality_fixed_point); false means the
  /// max_sweeps cap fired first.
  bool converged = false;
};

/// Parallel label propagation (Raghavan-style community detection, the
/// engineering shape of Staudt–Meyerhenke's PLP): every vertex starts in its
/// own community and repeatedly adopts the label holding the maximum total
/// edge weight among its neighbors — strictly heavier than its current
/// label's weight, ties toward the smaller label id.  Bucketed synchronized
/// sweeps make the result a pure function of the graph: bitwise identical
/// at every thread count, and the serial path is the literal reference
/// implementation of the same semantics.  Requires an undirected graph.
LabelPropResult label_propagation(const CSRGraph& g,
                                  const LabelPropParams& params = {});

/// Fixed-point contract of label propagation: for every vertex v, the total
/// neighbor edge weight of v's own label is >= that of every other label
/// (v holds a plurality label).  A converged label_propagation() labeling
/// satisfies this by construction — a vertex seeing a strictly heavier
/// label would have moved.  O(m); serial, for tests and validation.
bool is_plurality_fixed_point(const CSRGraph& g,
                              const std::vector<vid_t>& labels);

}  // namespace snap
