#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "generator_corpus.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/metrics/path_length.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

TEST(Metrics, AverageDegree) {
  EXPECT_DOUBLE_EQ(average_degree(gen::cycle_graph(10)), 2.0);
  EXPECT_DOUBLE_EQ(average_degree(gen::complete_graph(5)), 4.0);
}

TEST(Metrics, DegreeHistogram) {
  const auto g = gen::star_graph(6);
  const auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 7u);
  EXPECT_EQ(h[1], 6);
  EXPECT_EQ(h[6], 1);
  EXPECT_EQ(h[0], 0);
}

TEST(Clustering, CompleteGraphIsOne) {
  const auto g = gen::complete_graph(6);
  const auto cc = local_clustering_coefficients(g);
  for (double c : cc) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(average_clustering_coefficient(g), 1.0);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 1.0);
}

TEST(Clustering, StarIsZero) {
  const auto g = gen::star_graph(5);
  EXPECT_DOUBLE_EQ(average_clustering_coefficient(g), 0.0);
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 0.0);
}

TEST(Clustering, TrianglePlusPendantKnownValues) {
  // Triangle 0-1-2 with pendant 3 attached to 0.
  const EdgeList edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {0, 3, 1}};
  const auto g = CSRGraph::from_edges(4, edges, false);
  const auto cc = local_clustering_coefficients(g);
  EXPECT_DOUBLE_EQ(cc[0], 1.0 / 3.0);  // one closed of three pairs
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[2], 1.0);
  EXPECT_DOUBLE_EQ(cc[3], 0.0);
  // Global: 3 triangles' worth of closed wedges / total wedges.
  // Wedges: v0 has C(3,2)=3, v1 and v2 have 1 each -> 5; closed = 3.
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(g), 3.0 / 5.0);
}

// ------------------------------------------------------- triangle kernel

// The oracle: the per-vertex row merges the clustering metrics ran before
// the triangle kernel, kept verbatim.  O(Σ d²) and serial.

/// Triangles incident to v, counting each once per incident pair (u, w) —
/// i.e. the numerator of v's local clustering coefficient.  Uses sorted-
/// adjacency merge intersection.
eid_t wedge_closures(const CSRGraph& g, vid_t v) {
  const auto nv = g.neighbors(v);
  eid_t closed = 0;
  for (vid_t u : nv) {
    if (u == v) continue;  // self-loop arcs close no wedges
    // |N(v) ∩ N(u)| counts w adjacent to both; each closed wedge (u, w)
    // appears twice over the u loop, so the caller divides by 2.
    const auto nu = g.neighbors(u);
    std::size_t i = 0, j = 0;
    while (i < nv.size() && j < nu.size()) {
      if (nv[i] < nu[j]) {
        ++i;
      } else if (nv[i] > nu[j]) {
        ++j;
      } else {
        if (nv[i] != v && nv[i] != u) ++closed;
        ++i;
        ++j;
      }
    }
  }
  return closed / 2;
}

/// Degree excluding self-loop arcs (a loop stores two arcs to v itself).
/// Clustering coefficients are defined on the simple graph: loops close no
/// wedges, so counting their arcs in the denominator deflates the ratio.
eid_t simple_degree(const CSRGraph& g, vid_t v) {
  const auto nv = g.neighbors(v);
  eid_t d = static_cast<eid_t>(nv.size());
  for (vid_t u : nv)
    if (u == v) --d;
  return d;
}

struct OracleCounts {
  std::vector<eid_t> degree;
  std::vector<eid_t> triangles;
  eid_t closed = 0;  ///< Σ triangles over vertices: three per triangle
  eid_t wedges = 0;
  std::vector<double> local;
  double average = 0;
  double global = 0;
};

/// The former bodies of the three metric functions, run serially.
OracleCounts oracle_counts(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  OracleCounts o;
  o.local.assign(static_cast<std::size_t>(n), 0.0);
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = simple_degree(g, v);
    const eid_t closed = wedge_closures(g, v);
    o.degree.push_back(d);
    o.triangles.push_back(closed);
    if (d < 2) continue;
    o.local[static_cast<std::size_t>(v)] =
        2.0 * static_cast<double>(closed) /
        (static_cast<double>(d) * static_cast<double>(d - 1));
    o.closed += closed;
    o.wedges += d * (d - 1) / 2;
  }
  double sum = 0;
  for (double c : o.local) sum += c;
  o.average = o.local.empty() ? 0 : sum / static_cast<double>(o.local.size());
  o.global = o.wedges == 0 ? 0.0
                           : static_cast<double>(o.closed) /
                                 static_cast<double>(o.wedges);
  return o;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_matches_oracle(const TriangleCounts& t, const OracleCounts& o,
                           const std::string& what) {
  ASSERT_EQ(t.degree, o.degree) << what;
  ASSERT_EQ(t.triangles.size(), o.triangles.size()) << what;
  for (std::size_t v = 0; v < o.triangles.size(); ++v)
    ASSERT_EQ(t.triangles[v], o.triangles[v]) << what << " v " << v;
  ASSERT_EQ(3 * t.num_triangles, o.closed) << what;
  ASSERT_EQ(t.num_wedges, o.wedges) << what;
  for (std::size_t v = 0; v < o.local.size(); ++v)
    ASSERT_EQ(bits(t.local(static_cast<vid_t>(v))), bits(o.local[v]))
        << what << " v " << v;
  ASSERT_EQ(bits(t.average()), bits(o.average)) << what;
  ASSERT_EQ(bits(t.global()), bits(o.global)) << what;
}

/// The generator corpus (its directed R-MAT as its undirected twin: the
/// kernel's contract is undirected) plus the degenerate and self-loop cases.
std::vector<std::pair<std::string, CSRGraph>> triangle_inputs() {
  auto out = test::generator_corpus();
  for (auto& [name, g] : out)
    if (g.directed()) g = g.as_undirected();
  out.emplace_back("k5", gen::complete_graph(5));
  out.emplace_back("n0", CSRGraph::from_edges(0, {}, false));
  out.emplace_back("isolated_vertices",
                   CSRGraph::from_edges(12,
                                        {{0, 1, 1.0},
                                         {1, 2, 1.0},
                                         {0, 2, 1.0},
                                         {2, 3, 1.0},
                                         {7, 9, 1.0}},
                                        false));
  // Self loops kept by the builder: two row entries per loop.
  {
    const CSRGraph base = gen::watts_strogatz(600, 6, 0.1, 4);
    EdgeList edges = base.edges().to_list();
    for (vid_t v = 0; v < base.num_vertices(); v += 7)
      edges.push_back({v, v, 1.0});
    BuildOptions opts;
    opts.remove_self_loops = false;
    out.emplace_back("from_edges_self_loops",
                     CSRGraph::from_edges(base.num_vertices(), edges, false,
                                          opts));
  }
  // A streaming snapshot with self loops (one row entry per loop in the
  // DynamicGraph, two in its to_csr image).
  {
    gen::RmatParams p;
    p.scale = 10;
    p.edge_factor = 8;
    p.seed = 17;
    DynamicGraph d = DynamicGraph::from_csr(gen::rmat(p));
    for (vid_t v = 0; v < d.num_vertices(); v += 7) d.insert_edge(v, v);
    out.emplace_back("to_csr_self_loops", d.to_csr());
  }
  return out;
}

TEST(TriangleKernel, MatchesMergeOracleOnBothRowTypesAtEveryThreadCount) {
  for (const auto& [name, g] : triangle_inputs()) {
    if (name.ends_with("self_loops")) {
      eid_t loop_arcs = 0;
      for (vid_t v = 0; v < g.num_vertices(); ++v)
        for (const vid_t u : g.neighbors(v)) loop_arcs += u == v ? 1 : 0;
      ASSERT_GT(loop_arcs, 0) << name;
    }
    const OracleCounts o = oracle_counts(g);
    const DynamicGraph rows = DynamicGraph::from_csr(g);
    for (const int t : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(t);
      const std::string what = name + " threads " + std::to_string(t);
      expect_matches_oracle(count_triangles(g), o, what + " csr");
      expect_matches_oracle(count_triangles(rows), o, what + " rows");
      const auto local = local_clustering_coefficients(g);
      ASSERT_EQ(local.size(), o.local.size()) << what;
      for (std::size_t v = 0; v < local.size(); ++v)
        ASSERT_EQ(bits(local[v]), bits(o.local[v])) << what << " v " << v;
      ASSERT_EQ(bits(average_clustering_coefficient(g)), bits(o.average))
          << what;
      ASSERT_EQ(bits(global_clustering_coefficient(g)), bits(o.global))
          << what;
    }
  }
}

TEST(TriangleKernel, SelfLoopEntriesLeaveDegreesLoopFree) {
  // Triangle 0-1-2 with a loop at 0: the CSR row of 0 holds 0 twice, the
  // DynamicGraph row once; both report degree 2 and one triangle.
  BuildOptions opts;
  opts.remove_self_loops = false;
  const CSRGraph g = CSRGraph::from_edges(
      3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {0, 0, 1.0}}, false, opts);
  ASSERT_EQ(g.degree(0), 4);
  const DynamicGraph rows = DynamicGraph::from_csr(g);
  ASSERT_EQ(rows.degree(0), 3);
  for (const TriangleCounts& t : {count_triangles(g), count_triangles(rows)}) {
    EXPECT_EQ(t.degree, (std::vector<eid_t>{2, 2, 2}));
    EXPECT_EQ(t.triangles, (std::vector<std::int64_t>{1, 1, 1}));
    EXPECT_EQ(t.num_triangles, 1);
    EXPECT_EQ(t.num_wedges, 3);
    EXPECT_EQ(t.global(), 1.0);
    EXPECT_EQ(t.average(), 1.0);
  }
}

TEST(RichClub, CompleteGraphAllOnes) {
  const auto g = gen::complete_graph(5);  // all degrees 4
  const auto phi = rich_club_coefficients(g);
  ASSERT_EQ(phi.size(), 5u);
  for (eid_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(phi[k], 1.0);
  EXPECT_DOUBLE_EQ(phi[4], 0.0);  // no vertices of degree > 4
}

TEST(RichClub, StarDropsToZero) {
  const auto g = gen::star_graph(5);  // center degree 5, leaves 1
  const auto phi = rich_club_coefficients(g);
  // Degree > 1: only the center -> fewer than 2 vertices -> 0.
  EXPECT_DOUBLE_EQ(phi[1], 0.0);
  // Degree > 0: all 6 vertices, 5 edges: phi = 2*5/(6*5) = 1/3.
  EXPECT_DOUBLE_EQ(phi[0], 1.0 / 3.0);
}

TEST(Assortativity, StarIsMaximallyDisassortative) {
  const auto g = gen::star_graph(10);
  EXPECT_NEAR(assortativity_coefficient(g), -1.0, 1e-9);
}

TEST(Assortativity, RegularGraphDegenerate) {
  // All degrees equal: correlation undefined -> defined as 0.
  const auto g = gen::cycle_graph(10);
  EXPECT_DOUBLE_EQ(assortativity_coefficient(g), 0.0);
}

TEST(Assortativity, AssortativeConstruction) {
  // Two hubs joined to each other plus separate leaf pairs: high-degree
  // vertices attach to high-degree vertices.
  EdgeList edges{{0, 1, 1}};                      // hub-hub
  edges.push_back({0, 2, 1});
  edges.push_back({0, 3, 1});
  edges.push_back({1, 4, 1});
  edges.push_back({1, 5, 1});
  edges.push_back({6, 7, 1});  // leaf pair
  const auto g = CSRGraph::from_edges(8, edges, false);
  const double r = assortativity_coefficient(g);
  const auto g2 = gen::star_graph(7);
  EXPECT_GT(r, assortativity_coefficient(g2));
}

TEST(NeighborConnectivity, StarKnownValues) {
  const auto g = gen::star_graph(5);
  const auto knn = average_neighbor_connectivity(g);
  ASSERT_EQ(knn.size(), 6u);
  EXPECT_DOUBLE_EQ(knn[1], 5.0);  // leaves see the hub
  EXPECT_DOUBLE_EQ(knn[5], 1.0);  // hub sees leaves
}

TEST(PathLength, ExactOnPathGraph) {
  const auto g = gen::path_graph(4);
  const auto s = exact_path_length(g);
  // Pairwise distances (ordered pairs): 1,2,3,1,1,2,2,1,1,3,2,1 -> avg 5/3.
  EXPECT_NEAR(s.average, 5.0 / 3.0, 1e-9);
  EXPECT_EQ(s.max_eccentricity, 3);
}

TEST(PathLength, SampledConvergesToExact) {
  const auto g = gen::grid_road(12, 12, 0.0, 0.0, 1);
  const auto exact = exact_path_length(g);
  const auto sampled = sampled_path_length(g, 60, 5);
  EXPECT_NEAR(sampled.average, exact.average, exact.average * 0.15);
  EXPECT_LE(sampled.max_eccentricity, exact.max_eccentricity);
}

TEST(PathLength, SmallWorldShorterThanLattice) {
  const auto lattice = gen::watts_strogatz(400, 3, 0.0, 1);
  const auto rewired = gen::watts_strogatz(400, 3, 0.2, 1);
  EXPECT_LT(sampled_path_length(rewired, 50, 2).average,
            sampled_path_length(lattice, 50, 2).average);
}

TEST(Summary, ReportsConsistentStructure) {
  std::vector<vid_t> truth;
  const auto g = gen::planted_partition(500, 5, 10.0, 1.0, 3, &truth);
  const auto s = summarize(g, 16, 1);
  EXPECT_EQ(s.n, 500);
  EXPECT_EQ(s.m, g.num_edges());
  EXPECT_FALSE(s.directed);
  EXPECT_NEAR(s.avg_degree, average_degree(g), 1e-12);
  EXPECT_GE(s.giant_component_size, s.n / 2);
  EXPECT_GT(s.approx_avg_path_length, 1.0);
  EXPECT_GE(s.max_degree, static_cast<eid_t>(s.avg_degree));
}

}  // namespace
}  // namespace snap
