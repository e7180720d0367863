// An unweighted graph stores no weights and reads 1.0 for every edge; a
// weighted graph stores its own.  Each kernel that reads weights must give
// the same answer on an unweighted graph and on the same edges with every
// weight 2.0: doubling is exact in floating point, so community answers
// are bitwise equal and distances and tree weights exactly double.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/io/metis_io.hpp"
#include "snap/kernels/mst.hpp"
#include "snap/kernels/sssp.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

constexpr int kThreads[] = {1, 4};

struct Twins {
  CSRGraph unit;     ///< stores no weights
  CSRGraph doubled;  ///< the same edges, every weight 2.0, stored
};

Twins twins() {
  Twins t;
  t.unit = gen::planted_partition(2000, 20, 8.0, 2.0, /*seed=*/7);
  EdgeList edges = t.unit.edges().to_list();
  for (Edge& e : edges) e.w = 2.0;
  t.doubled = CSRGraph::from_edges(t.unit.num_vertices(), edges, false);
  return t;
}

TEST(UnitWeights, OnlyAWeightedGraphStoresWeights) {
  const Twins t = twins();
  ASSERT_FALSE(t.unit.weighted());
  ASSERT_TRUE(t.doubled.weighted());
  EXPECT_TRUE(t.unit.arc_weights().empty());
  EXPECT_EQ(t.doubled.arc_weights().size(),
            static_cast<std::size_t>(t.doubled.num_arcs()));
  EXPECT_EQ(t.doubled.byte_size(),
            t.unit.byte_size() +
                8 * static_cast<std::size_t>(t.unit.num_arcs() +
                                             t.unit.num_edges()));
  for (vid_t v = 0; v < t.unit.num_vertices(); v += 97) {
    for (const weight_t w : t.unit.weights(v)) EXPECT_EQ(w, 1.0);
    for (const weight_t w : t.doubled.weights(v)) EXPECT_EQ(w, 2.0);
  }
  EXPECT_EQ(t.unit.total_edge_weight(),
            static_cast<weight_t>(t.unit.num_edges()));
  EXPECT_EQ(t.doubled.total_edge_weight(), 2.0 * t.unit.total_edge_weight());
}

TEST(UnitWeights, LouvainIsBitwiseEqual) {
  const Twins t = twins();
  for (const int threads : kThreads) {
    parallel::ThreadScope scope(threads);
    LouvainParams params;
    params.path = ExecPath::kParallel;  // the engine that uses the threads
    const LouvainResult a = louvain(t.unit, params);
    const LouvainResult b = louvain(t.doubled, params);
    EXPECT_EQ(a.community.clustering.membership,
              b.community.clustering.membership)
        << "threads=" << threads;
    EXPECT_EQ(a.community.modularity, b.community.modularity)
        << "threads=" << threads;
  }
}

TEST(UnitWeights, LabelPropagationIsBitwiseEqual) {
  const Twins t = twins();
  for (const int threads : kThreads) {
    parallel::ThreadScope scope(threads);
    LabelPropParams params;
    params.path = ExecPath::kParallel;
    const LabelPropResult a = label_propagation(t.unit, params);
    const LabelPropResult b = label_propagation(t.doubled, params);
    EXPECT_EQ(a.community.clustering.membership,
              b.community.clustering.membership)
        << "threads=" << threads;
    EXPECT_EQ(a.community.modularity, b.community.modularity)
        << "threads=" << threads;
  }
}

TEST(UnitWeights, SsspDistancesDouble) {
  const Twins t = twins();
  for (const int threads : kThreads) {
    parallel::ThreadScope scope(threads);
    for (const vid_t s : {vid_t{0}, vid_t{1234}}) {
      for (const bool stepping : {false, true}) {
        const SSSPResult a =
            stepping ? delta_stepping(t.unit, s) : dijkstra(t.unit, s);
        const SSSPResult b =
            stepping ? delta_stepping(t.doubled, s) : dijkstra(t.doubled, s);
        ASSERT_EQ(a.dist.size(), b.dist.size());
        for (std::size_t v = 0; v < a.dist.size(); ++v)
          ASSERT_EQ(b.dist[v], 2.0 * a.dist[v])
              << "threads=" << threads << " source " << s << " vertex " << v
              << (stepping ? " (delta-stepping)" : " (dijkstra)");
      }
    }
  }
}

TEST(UnitWeights, MstWeightDoubles) {
  const Twins t = twins();
  for (const int threads : kThreads) {
    parallel::ThreadScope scope(threads);
    const MSTResult a = boruvka_mst(t.unit);
    const MSTResult b = boruvka_mst(t.doubled);
    EXPECT_EQ(a.num_trees, b.num_trees) << "threads=" << threads;
    EXPECT_EQ(b.total_weight, 2.0 * a.total_weight) << "threads=" << threads;
  }
}

TEST(UnitWeights, MetisRoundTripsBoth) {
  const Twins t = twins();
  const std::string path =
      (std::filesystem::temp_directory_path() / "snap_unit_weights.metis")
          .string();
  for (const int threads : kThreads) {
    parallel::ThreadScope scope(threads);
    for (const CSRGraph* g : {&t.unit, &t.doubled}) {
      io::write_metis(*g, path);
      const CSRGraph back = io::read_metis(path);
      EXPECT_EQ(back.weighted(), g->weighted());
      EXPECT_TRUE(back.edges() == g->edges())
          << "threads=" << threads << " weighted=" << g->weighted();
      EXPECT_EQ(back.byte_size(), g->byte_size());
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace snap
