// Differential harness for the parallel CSR construction pipeline (PR 2):
// random edge lists — duplicates, self loops, weights, directed and
// undirected — built with ExecPath::kParallel at threads {1, 2, 4, 8} must
// produce CSR arrays identical to the retained serial reference builder
// (ExecPath::kSerial).  With sort_adjacency on the comparison is exact
// array equality (the builder's determinism contract); with it off, arc
// order within a vertex is scheduling-dependent, so slices are compared as
// multisets.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "snap/debug/determinism.hpp"
#include "snap/debug/validate.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

/// Messy synthetic input: clustered ids (lots of duplicates), self loops,
/// a mix of weighted and unit-weight edges.
EdgeList messy_edges(vid_t n, std::size_t m, std::uint64_t seed) {
  SplitMix64 rng(seed);
  EdgeList edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    Edge e;
    if (rng.next_double() < 0.3) {
      // Cluster into a small id range to force parallel edges.
      e.u = static_cast<vid_t>(rng.next_bounded(16));
      e.v = static_cast<vid_t>(rng.next_bounded(16));
    } else {
      e.u = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
      e.v = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
    }
    if (rng.next_double() < 0.02) e.v = e.u;  // explicit self loops
    e.w = rng.next_double() < 0.5 ? 1.0
                                  : static_cast<double>(rng.next_bounded(8)) + 0.5;
    edges.push_back(e);
  }
  return edges;
}

void expect_identical(const CSRGraph& got, const CSRGraph& ref) {
  ASSERT_EQ(got.num_vertices(), ref.num_vertices());
  ASSERT_EQ(got.num_edges(), ref.num_edges());
  ASSERT_EQ(got.num_arcs(), ref.num_arcs());
  EXPECT_EQ(got.directed(), ref.directed());
  EXPECT_EQ(got.weighted(), ref.weighted());
  ASSERT_EQ(got.edges().size(), ref.edges().size());
  for (std::size_t e = 0; e < ref.edges().size(); ++e)
    ASSERT_EQ(got.edges()[e], ref.edges()[e]) << "edge " << e;
  for (vid_t v = 0; v < ref.num_vertices(); ++v) {
    ASSERT_EQ(got.arc_begin(v), ref.arc_begin(v)) << "offset " << v;
    ASSERT_EQ(got.arc_end(v), ref.arc_end(v)) << "offset " << v;
  }
  for (eid_t a = 0; a < ref.num_arcs(); ++a) {
    ASSERT_EQ(got.arc_target(a), ref.arc_target(a)) << "adj " << a;
    ASSERT_EQ(got.arc_weight(a), ref.arc_weight(a)) << "weight " << a;
    ASSERT_EQ(got.arc_edge_id(a), ref.arc_edge_id(a)) << "edge id " << a;
  }
}

/// Weaker equivalence for sort_adjacency = false: per-vertex arc slices as
/// multisets of (target, weight, edge id).
void expect_equivalent_slices(const CSRGraph& got, const CSRGraph& ref) {
  ASSERT_EQ(got.num_vertices(), ref.num_vertices());
  ASSERT_EQ(got.num_arcs(), ref.num_arcs());
  using Arc = std::tuple<vid_t, weight_t, eid_t>;
  for (vid_t v = 0; v < ref.num_vertices(); ++v) {
    ASSERT_EQ(got.arc_begin(v), ref.arc_begin(v)) << "offset " << v;
    std::vector<Arc> a, b;
    for (eid_t x = ref.arc_begin(v); x < ref.arc_end(v); ++x) {
      a.emplace_back(got.arc_target(x), got.arc_weight(x), got.arc_edge_id(x));
      b.emplace_back(ref.arc_target(x), ref.arc_weight(x), ref.arc_edge_id(x));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "vertex " << v;
  }
}

using BuildCase = std::tuple<bool /*directed*/, bool /*dedupe*/,
                             bool /*keep self loops*/, int /*threads*/>;

class BuildDifferential : public ::testing::TestWithParam<BuildCase> {};

TEST_P(BuildDifferential, ParallelMatchesSerialReference) {
  const auto [directed, dedupe, keep_loops, threads] = GetParam();
  // Large enough to engage parallel_sort's real sample-sort path (> 1<<14).
  const vid_t n = 700;
  const EdgeList input = messy_edges(n, 50000, 12345);

  BuildOptions ref_opts;
  ref_opts.dedupe = dedupe;
  ref_opts.remove_self_loops = !keep_loops;
  ref_opts.path = ExecPath::kSerial;
  const CSRGraph ref = CSRGraph::from_edges(n, input, directed, ref_opts);

  parallel::ThreadScope scope(threads);
  BuildOptions par_opts = ref_opts;
  par_opts.path = ExecPath::kParallel;
  const CSRGraph got = CSRGraph::from_edges(n, input, directed, par_opts);
  expect_identical(got, ref);
}

TEST_P(BuildDifferential, UnsortedAdjacencyIsEquivalent) {
  const auto [directed, dedupe, keep_loops, threads] = GetParam();
  const vid_t n = 500;
  const EdgeList input = messy_edges(n, 40000, 777);

  BuildOptions ref_opts;
  ref_opts.dedupe = dedupe;
  ref_opts.remove_self_loops = !keep_loops;
  ref_opts.sort_adjacency = false;
  ref_opts.path = ExecPath::kSerial;
  const CSRGraph ref = CSRGraph::from_edges(n, input, directed, ref_opts);

  parallel::ThreadScope scope(threads);
  BuildOptions par_opts = ref_opts;
  par_opts.path = ExecPath::kParallel;
  const CSRGraph got = CSRGraph::from_edges(n, input, directed, par_opts);
  // The logical edge list must still be identical — only arc order varies.
  ASSERT_EQ(got.edges().size(), ref.edges().size());
  for (std::size_t e = 0; e < ref.edges().size(); ++e)
    ASSERT_EQ(got.edges()[e], ref.edges()[e]) << "edge " << e;
  expect_equivalent_slices(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BuildDifferential,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 4, 8)));

// The thread sweep above proves parallel == serial at each t separately;
// this pins the stronger cross-thread-count claim on the shared harness:
// the parallel builder's output arrays hash identically at t = 1, 2, 4, 8.
TEST(BuildDifferentialEdgeCases, ParallelBuildHashesIdenticallyAcrossThreads) {
  const EdgeList edges = messy_edges(2000, 60000, 77);
  for (const bool directed : {false, true}) {
    BuildOptions opts;
    opts.path = ExecPath::kParallel;
    opts.remove_self_loops = false;
    const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
      const CSRGraph g = CSRGraph::from_edges(2000, edges, directed, opts);
      h.value(g.num_edges());
      h.sequence(debug::Access::offsets(g));
      h.sequence(debug::Access::adj(g));
      h.sequence(debug::Access::weights(g));
      h.sequence(debug::Access::arc_edge_ids(g));
    });
    ASSERT_TRUE(report.deterministic)
        << (directed ? "directed: " : "undirected: ") << report.to_string();
  }
}

TEST(BuildDifferentialEdgeCases, OutOfRangeErrorIsDeterministic) {
  // The parallel prepare pass aggregates errors instead of throwing
  // mid-loop; the reported index must be the lowest offending one.
  EdgeList edges = messy_edges(100, 40000, 5);
  edges[20000] = {5, 100, 1.0};  // first bad edge
  edges[30000] = {-1, 3, 1.0};
  parallel::ThreadScope scope(8);
  BuildOptions opts;
  opts.path = ExecPath::kParallel;
  try {
    CSRGraph::from_edges(100, edges, false, opts);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& ex) {
    EXPECT_NE(std::string(ex.what()).find("input edge 20000"),
              std::string::npos)
        << ex.what();
  }
}

TEST(BuildDifferentialEdgeCases, EmptyAndTinyInputs) {
  parallel::ThreadScope scope(8);
  BuildOptions opts;
  opts.path = ExecPath::kParallel;
  const CSRGraph empty = CSRGraph::from_edges(0, {}, false, opts);
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty.num_edges(), 0);
  const CSRGraph lone = CSRGraph::from_edges(3, {{0, 1, 1.0}}, false, opts);
  EXPECT_EQ(lone.num_edges(), 1);
  EXPECT_TRUE(lone.has_edge(1, 0));
}

TEST(BuildDifferentialEdgeCases, DedupeKeepsSmallestWeight) {
  // The documented dedupe rule: among parallel edges the smallest weight
  // wins, identically on both build paths.
  EdgeList edges;
  for (int i = 0; i < 3; ++i) edges.push_back({0, 1, 5.0 - i});
  for (const ExecPath path : {ExecPath::kSerial, ExecPath::kParallel}) {
    parallel::ThreadScope scope(4);
    BuildOptions opts;
    opts.path = path;
    const CSRGraph g = CSRGraph::from_edges(2, edges, false, opts);
    ASSERT_EQ(g.num_edges(), 1);
    EXPECT_DOUBLE_EQ(g.edges()[0].w, 3.0);
  }
}

}  // namespace
}  // namespace snap
