// Thread-count-invariance checks on the centralized harness
// (snap/debug/determinism.hpp): each kernel runs at t = 1, 2, 4, 8 and the
// byte hash of its guaranteed-invariant outputs must match across all runs.
// Kernels whose floats legitimately differ across thread counts (betweenness,
// closeness, parallel modularity sums) are deliberately absent — see the
// header comment in determinism.hpp and docs/CORRECTNESS.md.

#include <gtest/gtest.h>

#include <vector>

#include "snap/centrality/betweenness.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/pma.hpp"
#include "snap/debug/determinism.hpp"
#include "snap/debug/validate.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/partition/partitioned_csr.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/kcore.hpp"
#include "snap/kernels/mst.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/kernels/sssp.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

CSRGraph rmat_graph(int scale, int edge_factor, std::uint64_t seed) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return gen::rmat(p);
}

void hash_csr(debug::ByteHasher& h, const CSRGraph& g) {
  h.value(g.num_vertices());
  h.value(g.num_edges());
  h.sequence(debug::Access::offsets(g));
  h.sequence(debug::Access::adj(g));
  h.sequence(debug::Access::weights(g));
  h.sequence(debug::Access::arc_edge_ids(g));
}

/// Component labels renumbered in first-seen vertex order, so the hash sees
/// the partition itself rather than the label values.
std::vector<vid_t> canonical_labels(const std::vector<vid_t>& label) {
  std::vector<vid_t> remap(label.size(), kInvalidVid);
  std::vector<vid_t> out(label.size());
  vid_t next = 0;
  for (std::size_t v = 0; v < label.size(); ++v) {
    auto& slot = remap[static_cast<std::size_t>(label[v])];
    if (slot == kInvalidVid) slot = next++;
    out[v] = slot;
  }
  return out;
}

TEST(Determinism, ParallelCsrBuild) {
  // A big enough edge list that ExecPath::kAuto would also go parallel,
  // forced explicitly so the test exercises the parallel pipeline even if
  // the cutoff moves.
  const CSRGraph src = rmat_graph(17, 6, 99);
  const EdgeList edges = src.edges().to_list();
  BuildOptions opts;
  opts.path = ExecPath::kParallel;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const CSRGraph g =
        CSRGraph::from_edges(src.num_vertices(), edges, false, opts);
    hash_csr(h, g);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, BfsHybridDistances) {
  const CSRGraph g = rmat_graph(14, 8, 3);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const BFSResult r = bfs_hybrid(g, 0);
    // dist is guaranteed invariant; the parent tree is not (any valid
    // shortest-path tree is accepted), so it stays out of the hash.
    h.sequence(r.dist);
    h.value(r.num_visited);
    h.value(r.num_levels);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, ConnectedComponentsPartition) {
  const CSRGraph g = gen::erdos_renyi(5000, 6000, /*directed=*/false, 17);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const Components c = connected_components(g);
    h.value(c.count);
    h.sequence(canonical_labels(c.label));
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, KCoreDecomposition) {
  const CSRGraph g = rmat_graph(13, 10, 23);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const KCoreResult r = kcore_decomposition(g);
    h.sequence(r.core);
    h.value(r.degeneracy);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, DeltaSteppingUnitWeights) {
  // Unit weights: every reachable distance is a small integer in double
  // form, so bitwise equality across thread counts is exactly the kernel's
  // determinism guarantee (no accumulation-order rounding in play).
  const CSRGraph g = gen::erdos_renyi(4000, 20000, /*directed=*/false, 31);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const SSSPResult r = delta_stepping(g, 0);
    h.sequence(r.dist);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, BoruvkaMstEdgeSet) {
  const CSRGraph g = gen::erdos_renyi(3000, 15000, /*directed=*/false, 41);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const MSTResult r = boruvka_mst(g);
    h.sequence(r.tree_edges);
    h.value(r.num_trees);
    h.value(r.total_weight);  // serial fixed-order sum: bitwise stable
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, StreamingApplyAndSnapshot) {
  // Replay the same update stream from scratch per thread count; the final
  // DynamicGraph snapshot (a full byte-layout capture via to_csr) must be
  // identical — the PR 3 guarantee, now on the shared harness.
  const vid_t n = 500;
  std::vector<stream::UpdateBatch> batches(4);
  SplitMix64 rng(7);
  for (auto& b : batches) {
    for (int i = 0; i < 900; ++i) {
      const auto u = static_cast<vid_t>(rng.next_bounded(n));
      const auto v = static_cast<vid_t>(rng.next_bounded(n));
      if (rng.next_bounded(100) < 30)
        b.erase(u, v);
      else
        b.insert(u, v);
    }
  }
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    stream::StreamingGraph sg(n, /*directed=*/false);
    for (const auto& b : batches) {
      const stream::ApplyStats st = sg.apply(b);
      h.value(st.applied_inserts);
      h.value(st.applied_deletes);
    }
    hash_csr(h, sg.pin()->graph());
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, DynamicToCsrRoundTrip) {
  const CSRGraph src = gen::erdos_renyi(800, 4000, /*directed=*/false, 53);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const DynamicGraph d = DynamicGraph::from_csr(src);
    hash_csr(h, d.to_csr());
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, TriangleCountsAndCoefficients) {
  // Integer credits: the counts, and so the three coefficients, are
  // identical at every thread count on both row types.
  const CSRGraph g = rmat_graph(14, 8, 29);
  const DynamicGraph rows = DynamicGraph::from_csr(g);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    for (const TriangleCounts& t :
         {count_triangles(g), count_triangles(rows)}) {
      h.sequence(t.degree);
      h.sequence(t.triangles);
      h.value(t.num_triangles);
      h.value(t.num_wedges);
      for (vid_t v = 0; v < static_cast<vid_t>(t.degree.size()); ++v)
        h.value(t.local(v));
      h.value(t.average());
      h.value(t.global());
    }
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, PmaMembership) {
  // pMA's merge choices come from serial incremental delta-Q bookkeeping, so
  // the dendrogram and the cut membership are invariant.  r.modularity is a
  // parallel float reduction and rounds differently per thread count — it is
  // intentionally NOT hashed.
  const CSRGraph g = gen::erdos_renyi(300, 1200, /*directed=*/false, 61);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const CommunityResult r = pma(g);
    h.sequence(r.clustering.membership);
    h.value(r.clustering.num_clusters);
    h.value(r.iterations);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, LouvainHierarchy) {
  // The full Louvain surface is hashable — unlike pMA, even the modularity
  // values: every float in the hierarchy (community volumes, per-level and
  // final modularity, dendrogram merge scores) comes from fixed-order serial
  // accumulation (modularity_ordered, ascending-vertex volume sums), so the
  // bitwise guarantee covers the scores, not just the partitions.
  const CSRGraph g =
      gen::planted_partition(3000, 12, /*deg_in=*/10.0, /*deg_out=*/2.0, 77);
  LouvainParams params;
  params.path = ExecPath::kParallel;  // force it even below the cutoff
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const LouvainResult r = louvain(g, params);
    h.sequence(r.community.clustering.membership);
    h.value(r.community.clustering.num_clusters);
    h.value(r.community.modularity);
    h.value(r.community.iterations);
    h.value(r.refine_moves);
    h.value(r.community.dendrogram.baseline());
    for (const auto& mg : r.community.dendrogram.merges()) {
      h.value(mg.a);
      h.value(mg.b);
      h.value(mg.modularity);
    }
    for (const LouvainLevel& lvl : r.levels) {
      h.sequence(lvl.membership());
      h.sequence(lvl.community_volume());
      h.value(lvl.num_communities());
      h.value(lvl.modularity());
      h.value(lvl.sweeps());
      h.value(lvl.moves());
    }
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, LabelPropagationLabels) {
  const CSRGraph g = rmat_graph(13, 6, 83);
  LabelPropParams params;
  params.path = ExecPath::kParallel;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const LabelPropResult r = label_propagation(g, params);
    h.sequence(canonical_labels(r.community.clustering.membership));
    h.value(r.community.clustering.num_clusters);
    h.value(r.community.modularity);  // modularity_ordered: bitwise stable
    h.value(r.sweeps);
    h.value(r.converged);
    h.value(r.community.iterations);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

// --------------------------------------------------------- Brandes engine
// Betweenness floats are NOT thread-count invariant in general (partial-sum
// boundaries move with nt), so these entries run the engine on graphs where
// every score is integer-valued — σ = 1 on trees and masked paths, so all
// dependencies are exact integers and their double sums are order-free.
// That makes the hash test the *traversal* (and its touched-only scratch
// reuse), which is exactly the engine property worth pinning.

TEST(Determinism, BrandesCoarseOnTree) {
  const CSRGraph g = gen::barabasi_albert(600, /*m_per_vertex=*/1, 9);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const BetweennessScores bc =
        betweenness_centrality(g, BCGranularity::kCoarse);
    h.sequence(bc.vertex);
    h.sequence(bc.edge);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, BrandesFineOnTree) {
  const CSRGraph g = gen::barabasi_albert(600, /*m_per_vertex=*/1, 9);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const BetweennessScores bc =
        betweenness_centrality(g, BCGranularity::kFine);
    h.sequence(bc.vertex);
    h.sequence(bc.edge);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, BrandesMaskedOnFragmentedCycle) {
  // Masking a few cycle edges leaves disjoint path fragments: several
  // components per traversal batch, all scores integers.
  const CSRGraph g = gen::cycle_graph(400);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(g.num_edges()), 1);
  alive[0] = alive[133] = alive[266] = 0;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    h.sequence(edge_betweenness_masked(g, alive));
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, BrandesWeightedOnTree) {
  // A weighted path with distinct weights: the Dijkstra forward phase is
  // exercised (non-uniform settle order) while σ stays 1 everywhere.
  EdgeList edges;
  const vid_t n = 300;
  for (vid_t v = 0; v + 1 < n; ++v)
    edges.push_back({v, v + 1, static_cast<weight_t>(1 + (v * 7) % 5)});
  const CSRGraph g = CSRGraph::from_edges(n, edges, /*directed=*/false);
  ASSERT_TRUE(g.weighted());
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const BetweennessScores bc = weighted_betweenness_centrality(g);
    h.sequence(bc.vertex);
    h.sequence(bc.edge);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

// ------------------------------------------------- memory-layout pre-passes

TEST(Determinism, ReorderPermutationsAndGraphs) {
  // All three locality orderings sort with total-order comparators and apply
  // the permutation in parallel; both the permutation and the rebuilt CSR
  // must be byte-identical at every thread count.
  const CSRGraph g = rmat_graph(13, 8, 19);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    for (const ReorderedGraph& r :
         {relabel_by_degree(g), relabel_by_bfs(g, 0),
          relabel_by_hub_cluster(g)}) {
      h.sequence(r.new_to_old);
      hash_csr(h, r.graph);
    }
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, CompressedCsrEncodeBytes) {
  // Two-pass parallel encode into precomputed disjoint slices: the whole
  // compressed buffer (offsets and bytes) is a pure function of the graph.
  const CSRGraph g = rmat_graph(13, 8, 29);
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const CompressedCSR c = CompressedCSR::from_graph(g);
    h.sequence(c.byte_offsets());
    h.sequence(c.bytes());
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, PartitionedCsrBuildAndKernels) {
  // Pinned to the contiguous cut (use_partitioner = false): the multilevel
  // partitioner's cross-thread invariance is not yet a stated guarantee, the
  // sharded layout and owner-computes kernels' is.  Shard count is pinned
  // too — the layout is k-dependent by design.
  const CSRGraph g = rmat_graph(12, 8, 37);
  PartitionedCSROptions opts;
  opts.num_shards = 4;
  opts.use_partitioner = false;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const PartitionedCSR p = PartitionedCSR::build(g, opts);
    h.value(p.boundary_arcs());
    h.sequence(p.new_to_old());
    for (int s = 0; s < p.num_shards(); ++s) {
      h.sequence(p.shard(s).offsets);
      h.sequence(p.shard(s).adj);
    }
    h.sequence(p.bfs_distances(0));
    const Components c = p.components();
    h.value(c.count);
    h.sequence(canonical_labels(c.label));
    h.sequence(p.degrees());
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

// --------------------------------------------------------------- pagerank

TEST(Determinism, PageRankMass) {
  // Fixed-point mass: every reduction is an exact integer sum, so the whole
  // result surface — mass, ranks, iteration count, residual — is invariant,
  // not just the partition-like outputs.
  const CSRGraph g = rmat_graph(14, 8, 43);
  PageRankParams params;
  params.path = ExecPath::kParallel;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const PageRankResult r = pagerank(g, params);
    h.sequence(r.mass);
    h.sequence(r.rank);
    h.value(r.iterations);
    h.value(r.residual);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

TEST(Determinism, PartitionedPageRankMassAndTraffic) {
  // Shard count pinned (the exchange traffic is k-dependent by design);
  // thread count sweeps.  The message counters are part of the hash — the
  // combiner's merge pattern is a pure function of (graph, cut), not of the
  // schedule.
  const CSRGraph g = rmat_graph(12, 8, 37);
  PartitionedCSROptions opts;
  opts.num_shards = 4;
  opts.use_partitioner = false;
  const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
    const PartitionedCSR p = PartitionedCSR::build(g, opts);
    const PartitionedPageRank pr = p.pagerank();
    h.sequence(pr.result.mass);
    h.value(pr.result.iterations);
    h.value(pr.result.residual);
    h.value(pr.boundary_messages);
    h.value(pr.combined_messages);
  });
  ASSERT_TRUE(report.deterministic) << report.to_string();
}

}  // namespace
}  // namespace snap
