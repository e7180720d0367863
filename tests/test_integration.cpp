// End-to-end pipelines across modules, mirroring how §3's "exploratory
// network analysis" stacks preprocessing kernels under the high-level
// algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "snap/centrality/betweenness.hpp"
#include "snap/centrality/degree.hpp"
#include "snap/community/modularity.hpp"
#include "snap/community/pbd.hpp"
#include "snap/community/pla.hpp"
#include "snap/community/pma.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/subgraph.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/biconnected.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/partition/eval.hpp"
#include "snap/partition/multilevel.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

TEST(Pipeline, BfsVisitCountsMatchComponentSizes) {
  gen::RmatParams p;
  p.scale = 12;
  p.edge_factor = 4;
  const auto g = gen::rmat(p);
  const auto comps = connected_components(g);
  const auto sizes = comps.sizes();
  // BFS from any vertex must visit exactly its component.
  for (vid_t s : {vid_t{0}, g.num_vertices() / 2, g.num_vertices() - 1}) {
    const auto r = bfs(g, s);
    EXPECT_EQ(r.num_visited,
              sizes[static_cast<std::size_t>(
                  comps.label[static_cast<std::size_t>(s)])]);
  }
}

TEST(Pipeline, PreprocessingDecomposesThenAnalyzesConcurrently) {
  // §3: "If a graph is composed of several large connected components, it
  // can be decomposed and individual components can be analyzed
  // concurrently."  Two planted-partition blobs glued into one edge list.
  std::vector<vid_t> t1, t2;
  const auto g1 = gen::planted_partition(200, 2, 10.0, 1.0, 1, &t1);
  const auto g2 = gen::planted_partition(150, 3, 10.0, 1.0, 2, &t2);
  EdgeList all = g1.edges().to_list();
  for (Edge e : g2.edges()) {
    e.u += 200;
    e.v += 200;
    all.push_back(e);
  }
  const auto g = CSRGraph::from_edges(350, all, false);
  const auto comps = connected_components(g);
  ASSERT_GE(comps.count, 2);
  const auto subs = split_by_labels(g, comps.label, comps.count);
  vid_t total = 0;
  for (const auto& s : subs) {
    total += s.graph.num_vertices();
    if (s.graph.num_vertices() < 10) continue;
    const auto r = pma(s.graph);
    EXPECT_GT(r.modularity, 0.2);
  }
  EXPECT_EQ(total, 350);
}

TEST(Pipeline, ArticulationHubsAlsoScoreHighBetweenness) {
  // Biconnected preprocessing and betweenness agree on who matters: every
  // bridge endpoint separating a large side must have nonzero vertex BC.
  const auto g = gen::barbell_graph(10);
  const auto bcc = biconnected_components(g);
  const auto bc = betweenness_centrality(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (bcc.is_articulation[static_cast<std::size_t>(v)]) {
      EXPECT_GT(bc.vertex[static_cast<std::size_t>(v)], 0.0);
    }
  }
}

TEST(Pipeline, CommunityBeatsPartitioningOnModularity) {
  // §2.2's thesis: balanced partitioning optimizes the wrong objective for
  // small-world community structure.  On a planted-partition graph with
  // unequal natural clusters, modularity from pMA should match or beat the
  // modularity induced by a balanced k-way partition.
  std::vector<vid_t> truth;
  const auto g = gen::planted_partition(400, 5, 12.0, 1.0, 3, &truth);
  const auto part = multilevel_kway(g, 5);
  std::vector<vid_t> as_clusters(part.part.begin(), part.part.end());
  const double q_part = modularity(g, as_clusters);
  const double q_comm = pma(g).modularity;
  EXPECT_GE(q_comm, q_part - 0.02);
}

TEST(Pipeline, MetricsGuideAlgorithmSelection) {
  // §3: assortativity and clustering metrics flag community structure.
  std::vector<vid_t> truth;
  const auto community_graph =
      gen::planted_partition(500, 5, 10.0, 1.0, 7, &truth);
  const auto random_graph = gen::erdos_renyi(500, 2750, false, 7);
  // The community graph has a higher clustering coefficient...
  EXPECT_GT(average_clustering_coefficient(community_graph),
            average_clustering_coefficient(random_graph));
  // ...and community detection on it pays off, unlike on noise.
  EXPECT_GT(pma(community_graph).modularity,
            pma(random_graph).modularity + 0.1);
}

TEST(Pipeline, DirectedInputsFoldToUndirectedForCommunity) {
  // §5: "We ignore edge directivity in the community detection algorithms."
  gen::RmatParams p;
  p.scale = 9;
  p.edge_factor = 6;
  p.directed = true;
  const auto d = gen::rmat(p);
  ASSERT_TRUE(d.directed());
  const auto u = d.as_undirected();
  const auto r = pma(u);
  EXPECT_EQ(r.clustering.membership.size(),
            static_cast<std::size_t>(u.num_vertices()));
  EXPECT_GE(r.modularity, 0.0);
}

TEST(Pipeline, AllThreeAlgorithmsAgreeOnObviousStructure) {
  // Four well-separated cliques: everyone must find exactly four clusters.
  EdgeList edges;
  const vid_t k = 8;
  for (int c = 0; c < 4; ++c) {
    const vid_t base = c * k;
    for (vid_t u = 0; u < k; ++u)
      for (vid_t v = u + 1; v < k; ++v)
        edges.push_back({base + u, base + v, 1.0});
  }
  // A single cycle of weak links keeps it connected.
  edges.push_back({0, 8, 1.0});
  edges.push_back({8, 16, 1.0});
  edges.push_back({16, 24, 1.0});
  edges.push_back({24, 0, 1.0});
  const auto g = CSRGraph::from_edges(32, edges, false);

  PBDParams bp;
  const auto r_pbd = pbd(g, bp);
  const auto r_pma = pma(g);
  const auto r_pla = pla(g);
  EXPECT_EQ(r_pbd.clustering.num_clusters, 4);
  EXPECT_EQ(r_pma.clustering.num_clusters, 4);
  EXPECT_EQ(r_pla.clustering.num_clusters, 4);
  for (const auto& r : {r_pbd, r_pma, r_pla}) {
    EXPECT_GT(r.modularity, 0.6);
    // Cliques stay whole.
    for (int c = 0; c < 4; ++c)
      for (vid_t v = 1; v < k; ++v)
        EXPECT_EQ(r.clustering.membership[static_cast<std::size_t>(c * k + v)],
                  r.clustering.membership[static_cast<std::size_t>(c * k)]);
  }
}

TEST(Pipeline, ThreadSweepGivesIdenticalCommunityQuality) {
  // The figure benches sweep threads; results must not depend on the count.
  std::vector<vid_t> truth;
  const auto g = gen::planted_partition(300, 3, 10.0, 1.0, 17, &truth);
  PBDParams p;
  p.stop.target_clusters = 6;
  double q_ref = -1;
  for (int t : {1, 2, 4}) {
    parallel::ThreadScope scope(t);
    const double q = pbd(g, p).modularity;
    if (q_ref < 0)
      q_ref = q;
    else
      EXPECT_NEAR(q, q_ref, 1e-9) << "threads=" << t;
  }
}

TEST(Pipeline, SummaryOnKarateMatchesKnownFacts) {
  const auto g = gen::karate_club();
  const auto s = summarize(g, g.num_vertices(), 1);
  EXPECT_EQ(s.n, 34);
  EXPECT_EQ(s.m, 78);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.giant_component_size, 34);
  EXPECT_NEAR(s.avg_degree, 2.0 * 78 / 34, 1e-12);
  EXPECT_NEAR(s.approx_avg_path_length, 2.408, 0.01);  // known value
  EXPECT_EQ(s.approx_diameter, 5);                     // known diameter
  EXPECT_NEAR(s.avg_clustering, 0.5706, 0.005);        // known value
}

}  // namespace
}  // namespace snap
