#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/graph/subgraph.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

EdgeList triangle_plus_pendant() {
  // 0-1-2 triangle, 3 pendant off 0.
  return {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}};
}

TEST(CSRGraph, UndirectedBasics) {
  const auto g =
      CSRGraph::from_edges(4, triangle_plus_pendant(), /*directed=*/false);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_arcs(), 8);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(CSRGraph, DirectedBasics) {
  const EdgeList edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  const auto g = CSRGraph::from_edges(3, edges, /*directed=*/true);
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(CSRGraph, SortedAdjacency) {
  const EdgeList edges{{0, 3, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}};
  const auto g = CSRGraph::from_edges(4, edges, false);
  const auto nb = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(CSRGraph, DedupeCollapsesParallelEdges) {
  const EdgeList edges{{0, 1, 1.0}, {1, 0, 1.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CSRGraph, SelfLoopsRemovedByDefault) {
  const EdgeList edges{{0, 0, 1.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CSRGraph, SelfLoopKeptWhenRequestedCountsTwiceInDegree) {
  BuildOptions opts;
  opts.remove_self_loops = false;
  const EdgeList edges{{0, 0, 2.0}, {0, 1, 1.0}};
  const auto g = CSRGraph::from_edges(2, edges, false, opts);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 3);  // self loop contributes two arc slots
  double wsum = 0;
  for (weight_t w : g.weights(0)) wsum += w;
  EXPECT_DOUBLE_EQ(wsum, 5.0);  // 2 + 2 + 1
}

TEST(CSRGraph, EdgeIdsPairArcsOfOneEdge) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  // Every logical edge id must appear on exactly two arcs, and the two arcs
  // must connect the edge's endpoints.
  std::vector<int> count(static_cast<std::size_t>(g.num_edges()), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const auto ids = g.edge_ids(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ++count[static_cast<std::size_t>(ids[i])];
      const Edge e = g.edge(ids[i]);
      EXPECT_TRUE((e.u == v && e.v == nb[i]) || (e.v == v && e.u == nb[i]));
    }
  }
  for (int c : count) EXPECT_EQ(c, 2);
}

TEST(CSRGraph, WeightsPreserved) {
  const EdgeList edges{{0, 1, 2.5}, {1, 2, 0.5}};
  const auto g = CSRGraph::from_edges(3, edges, false);
  EXPECT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.0);
}

TEST(CSRGraph, OutOfRangeVertexThrows) {
  const EdgeList edges{{0, 5, 1.0}};
  EXPECT_THROW(CSRGraph::from_edges(3, edges, false), std::out_of_range);
}

TEST(CSRGraph, AsUndirectedFoldsArcs) {
  const EdgeList edges{{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}};
  const auto d = CSRGraph::from_edges(3, edges, /*directed=*/true);
  EXPECT_EQ(d.num_edges(), 3);
  const auto u = d.as_undirected();
  EXPECT_FALSE(u.directed());
  EXPECT_EQ(u.num_edges(), 2);
}

TEST(CSRGraph, EmptyGraph) {
  const auto g = CSRGraph::from_edges(5, {}, false);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

// ------------------------------------------------------------- Subgraph

TEST(Subgraph, InducedKeepsInternalEdgesOnly) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const Subgraph s = induced_subgraph(g, {0, 1, 2});
  EXPECT_EQ(s.graph.num_vertices(), 3);
  EXPECT_EQ(s.graph.num_edges(), 3);  // the triangle; pendant edge dropped
  EXPECT_EQ(s.to_parent.size(), 3u);
  EXPECT_EQ(s.from_parent[3], kInvalidVid);
  // Mapping roundtrip.
  for (vid_t nu = 0; nu < 3; ++nu)
    EXPECT_EQ(s.from_parent[s.to_parent[static_cast<std::size_t>(nu)]], nu);
}

TEST(Subgraph, SplitByLabels) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const std::vector<vid_t> labels{0, 0, 0, 1};
  const auto parts = split_by_labels(g, labels, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].graph.num_vertices(), 3);
  EXPECT_EQ(parts[1].graph.num_vertices(), 1);
  EXPECT_EQ(parts[1].graph.num_edges(), 0);
}

// --------------------------------------------------------- DynamicGraph

TEST(DynamicGraph, InsertDeleteHasEdge) {
  DynamicGraph d(4, /*directed=*/false);
  EXPECT_TRUE(d.insert_edge(0, 1));
  EXPECT_FALSE(d.insert_edge(1, 0));  // same undirected edge
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_TRUE(d.has_edge(1, 0));
  EXPECT_EQ(d.num_edges(), 1);
  EXPECT_TRUE(d.delete_edge(0, 1));
  EXPECT_FALSE(d.delete_edge(0, 1));
  EXPECT_EQ(d.num_edges(), 0);
}

TEST(DynamicGraph, RowDeletesEmptiesAndRefills) {
  DynamicGraph d(200, false);
  for (vid_t v = 1; v <= 20; ++v) d.insert_edge(0, v);
  EXPECT_EQ(d.degree(0), 20);
  EXPECT_EQ(d.degree(1), 1);
  EXPECT_TRUE(d.has_edge(0, 17));
  EXPECT_TRUE(d.delete_edge(0, 17));
  EXPECT_FALSE(d.has_edge(0, 17));
  EXPECT_FALSE(d.has_edge(17, 0));
  EXPECT_EQ(d.degree(0), 19);
  // Emptied, the row takes inserts again from scratch.
  for (vid_t v = 1; v <= 20; ++v) d.delete_edge(0, v);
  EXPECT_EQ(d.degree(0), 0);
  EXPECT_EQ(d.num_edges(), 0);
  for (vid_t v = 20; v >= 1; --v) EXPECT_TRUE(d.insert_edge(0, v));
  EXPECT_EQ(d.degree(0), 20);
  const auto row = d.neighbors(0);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_EQ(row.front(), 1);
  EXPECT_EQ(row.back(), 20);
}

TEST(DynamicGraph, AddVertexGrows) {
  DynamicGraph d(2, false);
  const vid_t v = d.add_vertex();
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(d.insert_edge(0, v));
  EXPECT_EQ(d.num_vertices(), 3);
}

TEST(DynamicGraph, ToCSRRoundtrip) {
  const auto g = CSRGraph::from_edges(4, triangle_plus_pendant(), false);
  const DynamicGraph d = DynamicGraph::from_csr(g);
  EXPECT_EQ(d.num_edges(), g.num_edges());
  const CSRGraph back = d.to_csr();
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

struct RandomCase {
  vid_t n;
  int ops;
  bool hubs;  ///< a quarter of the updates touch vertex 0, 1 or 2
  std::uint64_t seed;
};

class DynamicGraphRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(DynamicGraphRandom, MatchesReferenceAdjacency) {
  const RandomCase c = GetParam();
  const vid_t n = c.n;
  DynamicGraph d(n, false);
  std::set<std::pair<vid_t, vid_t>> ref;
  SplitMix64 rng(c.seed);
  for (int op = 0; op < c.ops; ++op) {
    vid_t u = static_cast<vid_t>(c.hubs && rng.next_bounded(4) == 0
                                     ? rng.next_bounded(3)
                                     : rng.next_bounded(n));
    vid_t v = static_cast<vid_t>(rng.next_bounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (rng.next_bounded(3) == 0) {
      EXPECT_EQ(d.delete_edge(u, v), ref.erase({u, v}) > 0);
    } else {
      EXPECT_EQ(d.insert_edge(u, v), ref.insert({u, v}).second);
    }
    ASSERT_EQ(d.num_edges(), static_cast<eid_t>(ref.size()));
  }
  // Every row must be the reference's neighbour set, ascending.
  std::vector<std::vector<vid_t>> rows(static_cast<std::size_t>(n));
  for (const auto& [u, v] : ref) {
    rows[static_cast<std::size_t>(u)].push_back(v);
    rows[static_cast<std::size_t>(v)].push_back(u);
  }
  eid_t longest = 0;
  for (vid_t v = 0; v < n; ++v) {
    auto& want = rows[static_cast<std::size_t>(v)];
    std::sort(want.begin(), want.end());
    const auto got = d.neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "row " << v;
    EXPECT_EQ(d.degree(v), static_cast<eid_t>(want.size()));
    longest = std::max(longest, d.degree(v));
  }
  if (c.hubs) {
    EXPECT_GT(longest, 1000) << "hub rows stayed short";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicGraphRandom,
                         ::testing::Values(RandomCase{60, 4000, false, 3},
                                           RandomCase{60, 4000, false, 5},
                                           RandomCase{60, 4000, false, 8},
                                           RandomCase{60, 4000, false, 21},
                                           // hub rows of thousands
                                           RandomCase{3000, 60000, true, 34}));

TEST(DynamicGraph, DirectedMode) {
  DynamicGraph d(3, /*directed=*/true);
  EXPECT_TRUE(d.insert_edge(0, 1));
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_FALSE(d.has_edge(1, 0));
  EXPECT_TRUE(d.insert_edge(1, 0));
  EXPECT_EQ(d.num_edges(), 2);
}

TEST(DynamicGraph, FromCsrToCsrRoundTrip) {
  const CSRGraph g = gen::erdos_renyi(120, 900, /*directed=*/false, 31);
  const DynamicGraph d = DynamicGraph::from_csr(g);
  EXPECT_EQ(d.num_edges(), g.num_edges());
  const CSRGraph back = d.to_csr();
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto want = g.neighbors(v);
    const auto got = back.neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "adjacency differs at " << v;
  }
}

// to_csr fills the CSR arrays straight from the rows and must equal, byte
// for byte, the image from_edges builds from the rows' edge list.

template <typename T>
std::vector<T> to_vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

CSRGraph to_csr_via_edge_list(const DynamicGraph& d) {
  EdgeList edges;
  for (vid_t u = 0; u < d.num_vertices(); ++u)
    for (const vid_t v : d.neighbors(u))
      if (d.directed() || u <= v) edges.push_back({u, v, 1.0});
  return CSRGraph::from_edges(d.num_vertices(), edges, d.directed(),
                              {.remove_self_loops = false});
}

/// A random update stream over a growing vertex set: a few hubs take a
/// quarter of the inserts (so their rows grow past 128 entries), one insert
/// in 16 is a self loop, and a quarter of the updates delete an earlier
/// insert.
DynamicGraph random_stream_graph(vid_t n0, int updates, bool directed,
                                 std::uint64_t seed) {
  DynamicGraph d(n0, directed);
  SplitMix64 rng(seed);
  std::vector<std::pair<vid_t, vid_t>> inserted;
  for (int i = 0; i < updates; ++i) {
    if (rng.next_bounded(64) == 0) d.add_vertex();
    const auto n = static_cast<std::uint64_t>(d.num_vertices());
    if (!inserted.empty() && rng.next_bounded(4) == 0) {
      const auto [u, v] = inserted[rng.next_bounded(inserted.size())];
      d.delete_edge(u, v);
      continue;
    }
    const std::uint64_t hubs = std::min<std::uint64_t>(n, 3);
    const auto u = static_cast<vid_t>(rng.next_bounded(4) == 0
                                          ? rng.next_bounded(hubs)
                                          : rng.next_bounded(n));
    const vid_t v = rng.next_bounded(16) == 0
                        ? u
                        : static_cast<vid_t>(rng.next_bounded(n));
    if (d.insert_edge(u, v)) inserted.emplace_back(u, v);
  }
  return d;
}

TEST(DynamicGraph, ToCsrMatchesFromEdges) {
  struct Case {
    const char* name;
    vid_t n0;
    int updates;
  };
  const Case cases[] = {{"n=0", 0, 0},
                        {"edgeless", 9, 0},
                        {"stream", 400, 6000},
                        // past the prefix sums' parallel cutoff
                        {"large stream", 5000, 40000}};
  for (const bool directed : {false, true}) {
    for (const Case& c : cases) {
      const DynamicGraph d =
          random_stream_graph(c.n0, c.updates, directed,
                              static_cast<std::uint64_t>(c.updates) + 7);
      const std::string what =
          std::string(c.name) + (directed ? " directed" : " undirected");
      if (c.updates > 0) {
        // The stream must reach long rows, self loops and growth.
        eid_t longest = 0;
        bool loop = false;
        for (vid_t v = 0; v < d.num_vertices(); ++v) {
          longest = std::max(longest, d.degree(v));
          loop |= d.has_edge(v, v);
        }
        ASSERT_TRUE(longest > 128 && loop && d.num_vertices() > c.n0) << what;
      }
      const CSRGraph want = to_csr_via_edge_list(d);
      for (const int threads : {1, 2, 4, 8}) {
        parallel::ThreadScope scope(threads);
        const CSRGraph got = d.to_csr();
        SCOPED_TRACE(what + " threads " + std::to_string(threads));
        ASSERT_EQ(got.num_vertices(), want.num_vertices());
        ASSERT_EQ(got.num_edges(), want.num_edges());
        ASSERT_EQ(got.directed(), want.directed());
        EXPECT_EQ(to_vec(got.row_offsets()), to_vec(want.row_offsets()));
        EXPECT_EQ(to_vec(got.adjacency()), to_vec(want.adjacency()));
        EXPECT_EQ(to_vec(got.arc_weights()), to_vec(want.arc_weights()));
        EXPECT_EQ(to_vec(got.arc_edge_id_array()),
                  to_vec(want.arc_edge_id_array()));
        EXPECT_EQ(got.edges(), want.edges());
        EXPECT_EQ(got.weighted(), want.weighted());
        EXPECT_EQ(got.adjacency_sorted(), want.adjacency_sorted());
      }
    }
  }
}

}  // namespace
}  // namespace snap
