#pragma once

// The offline path: load -> kernels.  One pass runs, over the loaded CSR
// graph, BFS from 16 seeded giant-component sources, connected components,
// PageRank (20 iterations, tol 0), sampled betweenness (4 sources) and
// Louvain.  Each kernel is one call into the library's public function, and
// the pass time is the sum of those calls' wall times.

#include <cstdint>
#include <vector>

#include "snap/graph/csr_graph.hpp"
#include "stats.hpp"

namespace e2e {

struct PassTimes {
  double wall_s = 0;  ///< the whole pass, bookkeeping between calls included
  double pass_s = 0;
  double bfs_s = 0;  ///< summed over the 16 searches
  double cc_s = 0;
  double pagerank_s = 0;
  double bc_s = 0;
  double louvain_s = 0;
};

/// Work counts of one pass; they repeat exactly for a given graph and seed.
struct KernelCounts {
  std::int64_t bfs_levels = 0;       ///< summed over the 16 searches
  std::int64_t bfs_pull_levels = 0;  ///< levels run bottom-up
  std::int64_t cc_components = 0;
  double pagerank_bytes = 0;  ///< modelled bytes, see offline.cpp
  std::int64_t louvain_levels = 0;
  std::int64_t louvain_sweeps = 0;
  std::int64_t louvain_moves = 0;
  std::int64_t louvain_level0_sweeps = 0;
  std::int64_t louvain_level0_moves = 0;
  std::int64_t louvain_refine_moves = 0;
  std::int64_t louvain_communities = 0;
};

class OfflinePipeline {
 public:
  static constexpr int kBfsSources = 16;
  static constexpr int kBcSources = 4;
  static constexpr int kPageRankIters = 20;

  /// Picks the seeded sources from the giant component (untimed).
  OfflinePipeline(const snap::CSRGraph& g, std::uint64_t seed);

  /// Untimed first pass: checks each kernel's output against its
  /// reference, records the digest every timed pass must reproduce, and
  /// collects the work counts.  Also warms caches and the allocator.
  void reference_pass(CheckLog& log);

  /// One timed pass, checked against the reference pass: bit for bit,
  /// except sampled betweenness, which matches to 1e-9 relative because
  /// its per-thread partial sums are taken in schedule order.
  PassTimes timed_pass(CheckLog& log);

  [[nodiscard]] const std::vector<snap::vid_t>& bfs_sources() const {
    return bfs_sources_;
  }
  /// Edges of the giant component: what one search traverses (Graph500).
  [[nodiscard]] snap::eid_t giant_edges() const { return giant_edges_; }
  [[nodiscard]] double modularity() const { return modularity_; }
  [[nodiscard]] const KernelCounts& counts() const { return counts_; }
  [[nodiscard]] const std::vector<std::uint64_t>& pagerank_mass() const {
    return pagerank_mass_;
  }

 private:
  const snap::CSRGraph& g_;
  std::vector<snap::vid_t> bfs_sources_;
  std::vector<snap::vid_t> bc_sources_;
  snap::eid_t giant_edges_ = 0;
  double modularity_ = 0;
  std::uint64_t digests_[4] = {};  ///< per kernel: bfs, cc, pagerank, louvain
  std::vector<double> bc_;
  std::vector<std::uint64_t> pagerank_mass_;
  KernelCounts counts_;
};

/// Layout alternatives (traced run only): the two reorder pre-passes, the
/// compressed adjacency, and the BFS/PageRank time on each.
struct LayoutMetrics {
  double relabel_degree_s = 0;
  double relabel_hub_s = 0;
  double bfs_degree_s = 0;
  double bfs_hub_s = 0;
  double compress_s = 0;
  double compressed_bytes_per_arc = 0;
  double bfs_compressed_s = 0;
  double pagerank_compressed_s = 0;
  /// Reported when neither ordering makes BFS faster: larger, and so
  /// worse, than any break-even a pre-pass that pays can have.
  static constexpr double kNeverBreaksEven = 1e9;
  /// 16-search BFS sets after which the cheaper-to-recover pre-pass has
  /// paid for itself.
  double reorder_breakeven_runs = 0;
};
LayoutMetrics measure_layouts(const snap::CSRGraph& g,
                              const std::vector<snap::vid_t>& sources,
                              double flat_bfs_s);

/// The partitioned layout (traced run only): build cost, cut size and the
/// owner-computes kernels, checked against the flat pipeline's results.
struct PartitionMetrics {
  double build_s = 0;
  double boundary_arc_frac = 0;
  double bfs_s = 0;
  double cc_s = 0;
  double pagerank_s = 0;
  double exchange_msgs_per_iter = 0;
  double exchange_naive_per_iter = 0;
  double combiner_ratio = 0;
};
PartitionMetrics measure_partition(const snap::CSRGraph& g,
                                   const OfflinePipeline& flat,
                                   CheckLog& log);

}  // namespace e2e
