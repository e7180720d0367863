// Tests for the future-work extensions (§6): spectral modularity
// maximization — plus the smaller engineering additions it relies on.
// Connectivity over update streams is ComponentsObserver's, in test_stream.
#include <gtest/gtest.h>

#include "snap/community/gn.hpp"
#include "snap/community/modularity.hpp"
#include "snap/community/pma.hpp"
#include "snap/community/spectral_modularity.hpp"
#include "snap/ds/sorted_dyn_array.hpp"
#include "snap/gen/generators.hpp"

namespace snap {
namespace {

// ------------------------------------------------ spectral modularity

TEST(SpectralModularity, BarbellPerfectSplit) {
  const auto g = gen::barbell_graph(8);
  const auto r = spectral_modularity(g);
  EXPECT_EQ(r.clustering.num_clusters, 2);
  EXPECT_GT(r.modularity, 0.4);
  for (vid_t v = 1; v < 8; ++v)
    EXPECT_EQ(r.clustering.membership[v], r.clustering.membership[0]);
}

TEST(SpectralModularity, KarateMatchesLiterature) {
  // Newman (2006) reports q ≈ 0.419 for the leading-eigenvector method with
  // fine-tuning on the karate club (4 communities).
  const auto g = gen::karate_club();
  const auto r = spectral_modularity(g);
  EXPECT_NEAR(r.modularity, 0.41, 0.03);
  EXPECT_GE(r.clustering.num_clusters, 2);
  EXPECT_LE(r.clustering.num_clusters, 6);
}

TEST(SpectralModularity, CompleteGraphIndivisible) {
  const auto g = gen::complete_graph(12);
  const auto r = spectral_modularity(g);
  EXPECT_EQ(r.clustering.num_clusters, 1);
  EXPECT_NEAR(r.modularity, 0.0, 1e-9);
}

TEST(SpectralModularity, PlantedPartitionRecovery) {
  std::vector<vid_t> truth;
  const auto g = gen::planted_partition(600, 6, 12.0, 1.0, 5, &truth);
  const auto r = spectral_modularity(g);
  EXPECT_GT(r.modularity, 0.5);
  // Should land within a whisker of the greedy agglomerative result.
  const auto cnm = pma(g);
  EXPECT_NEAR(r.modularity, cnm.modularity, 0.1);
}

TEST(SpectralModularity, FineTuneNeverHurts) {
  std::vector<vid_t> truth;
  const auto g = gen::planted_partition(300, 3, 10.0, 1.5, 9, &truth);
  SpectralModularityParams with;
  SpectralModularityParams without;
  without.fine_tune = false;
  EXPECT_GE(spectral_modularity(g, with).modularity + 1e-9,
            spectral_modularity(g, without).modularity);
}

TEST(SpectralModularity, DirectedThrows) {
  const auto g = CSRGraph::from_edges(2, {{0, 1, 1.0}}, /*directed=*/true);
  EXPECT_THROW(spectral_modularity(g), std::invalid_argument);
}

TEST(SpectralModularity, DisconnectedSplitsComponentsFirst) {
  EdgeList edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                 {3, 4, 1}, {4, 5, 1}, {3, 5, 1}};
  const auto g = CSRGraph::from_edges(6, edges, false);
  const auto r = spectral_modularity(g);
  EXPECT_EQ(r.clustering.num_clusters, 2);
  EXPECT_NE(r.clustering.membership[0], r.clustering.membership[3]);
}

// ----------------------------------------------- smaller engineering bits

TEST(DivisiveStall, StopsEarlyWithSameBestClustering) {
  const auto g = gen::karate_club();
  const auto full = girvan_newman(g);
  DivisiveParams p;
  p.stall_iterations = 25;
  const auto stalled = girvan_newman(g, p);
  EXPECT_LT(stalled.iterations, full.iterations);
  EXPECT_NEAR(stalled.modularity, full.modularity, 1e-9);
}

TEST(SortedDynArray, PushBackSortedKeepsInvariant) {
  SortedDynArray<vid_t, double> a;
  for (vid_t k = 0; k < 100; k += 3) a.push_back_sorted(k, k * 0.5);
  EXPECT_EQ(a.size(), 34u);
  EXPECT_TRUE(a.contains(33));
  EXPECT_FALSE(a.contains(34));
  ASSERT_NE(a.find(42), nullptr);
  EXPECT_DOUBLE_EQ(a.find(42)->value, 21.0);
}

}  // namespace
}  // namespace snap
