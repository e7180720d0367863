#pragma once

#include <cstdint>
#include <vector>

#include "snap/community/clustering.hpp"
#include "snap/debug/fwd.hpp"
#include "snap/graph/csr_graph.hpp"

namespace snap {

/// Parameters of the multilevel Louvain engine.
struct LouvainParams {
  /// Move-phase engine, chosen per level; `kAuto` goes parallel on levels of
  /// at least parallel::kParallelVertexCutoff vertices.
  ExecPath path = ExecPath::kAuto;
  /// Cap on coarsening levels (each level contracts communities to vertices).
  int max_levels = 24;
  /// Cap on local-move sweeps per level; a level also stops at the first
  /// sweep that moves no vertex.
  int max_sweeps = 32;
  /// Sub-rounds per sweep.  A sweep visits the vertex classes
  /// {v : v mod num_buckets == b} for b = 0..num_buckets-1; within one
  /// sub-round every move decision is evaluated against the frozen
  /// (labels, community-volume) state at sub-round start, and accepted moves
  /// are applied in ascending vertex order afterwards.  This is what makes
  /// the move phase a pure function of the graph — independent of thread
  /// count and schedule.  More buckets behave closer to sequential Louvain
  /// (better per-sweep quality) at the cost of more barriers.
  int num_buckets = 8;
  /// Stop coarsening when a level improves modularity by less than this.
  double min_level_gain = 1e-6;
  /// After the hierarchy converges, run extra local-move sweeps on the
  /// *original* graph seeded with the final flat membership (the standard
  /// refinement pass: it can split badly-placed vertices back out of
  /// coarsened-in communities).
  bool refine = true;
};

/// One level of the Louvain hierarchy: the clustering found on this level's
/// graph, the per-community volume table (sum of member weighted degrees,
/// self-loops counted twice), the contracted graph the next level runs on,
/// and the move-phase statistics.  The volume table and membership are
/// private so the mutation tests corrupt them through `debug::Access`, the
/// same hook every other validated structure uses.
class LouvainLevel {
 public:
  LouvainLevel() = default;
  LouvainLevel(std::vector<vid_t> membership, std::vector<double> volume,
               CSRGraph coarse, double modularity, int sweeps, eid_t moves)
      : membership_(std::move(membership)),
        volume_(std::move(volume)),
        coarse_(std::move(coarse)),
        modularity_(modularity),
        sweeps_(sweeps),
        moves_(moves) {}

  /// Dense community labels over this level's graph.
  [[nodiscard]] const std::vector<vid_t>& membership() const {
    return membership_;
  }
  /// Per-community volume: sum of members' weighted degrees (a self-loop
  /// contributes twice its weight, once per stored arc).
  [[nodiscard]] const std::vector<double>& community_volume() const {
    return volume_;
  }
  /// The contracted graph (one vertex per community, intra-community weight
  /// kept as self-loops) the next level runs on.
  [[nodiscard]] const CSRGraph& coarse_graph() const { return coarse_; }
  [[nodiscard]] vid_t num_communities() const {
    return static_cast<vid_t>(volume_.size());
  }
  /// Modularity of this level's clustering, measured on this level's graph
  /// with a thread-count-invariant recomputation (modularity_ordered).
  [[nodiscard]] double modularity() const { return modularity_; }
  [[nodiscard]] int sweeps() const { return sweeps_; }
  [[nodiscard]] eid_t moves() const { return moves_; }

 private:
  friend struct debug::Access;

  std::vector<vid_t> membership_;
  std::vector<double> volume_;
  CSRGraph coarse_;
  double modularity_ = 0.0;
  int sweeps_ = 0;
  eid_t moves_ = 0;
};

/// Result of the multilevel engine: the shared CommunityResult surface
/// (final clustering, modularity, merge dendrogram, iterations = total local
/// moves) plus the per-level hierarchy for inspection and validation.
struct LouvainResult {
  CommunityResult community;
  std::vector<LouvainLevel> levels;
  /// Moves made by the post-hierarchy refinement pass (included in
  /// community.iterations).
  eid_t refine_moves = 0;
};

/// Parallel Louvain (the PLM move/contract/refine loop of Staudt–Meyerhenke,
/// engineered on SNAP structures): synchronized bucketed local-move phase
/// with per-thread community-volume deltas merged deterministically in
/// ascending vertex order, contraction via the shared snap/partition
/// coarsener (`contract_by_map`, intra-community weight kept as self-loops),
/// and an optional refinement pass on the finest graph.  Bitwise
/// deterministic at every thread count; `ExecPath::kSerial`
/// selects the serial reference implementation of the same semantics, kept
/// as the oracle for the differential suite.  Requires an undirected graph.
LouvainResult louvain(const CSRGraph& g, const LouvainParams& params = {});

}  // namespace snap
