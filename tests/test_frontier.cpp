// Edge cases for the frontier substrate and the direction-optimizing BFS
// engine: the degenerate shapes where push/pull switching logic typically
// breaks, plus regression pins for bfs_bounded's accounting at the cutoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

HybridBFSOptions forced_pull() {
  HybridBFSOptions o;
  o.alpha = 1e18;
  o.beta = 1e18;
  o.min_pull_arcs = 0;
  return o;
}

// ------------------------------------------------------------- degenerate shapes

void expect_empty(const BFSResult& r, const char* what) {
  EXPECT_TRUE(r.dist.empty()) << what;
  EXPECT_TRUE(r.parent.empty()) << what;
  EXPECT_EQ(r.num_visited, 0) << what;
  EXPECT_EQ(r.num_levels, 0) << what;
}

TEST(FrontierEdgeCases, EmptyGraph) {
  // One rule at every entry point, on both layouts: n = 0 returns the empty
  // result (the source is not looked at).
  const auto g = CSRGraph::from_edges(0, {}, false);
  const CompressedCSR c = CompressedCSR::from_graph(g);
  for (const int threads : {1, 4}) {
    parallel::ThreadScope scope(threads);
    expect_empty(bfs_serial(g, 0), "bfs_serial");
    expect_empty(bfs_masked(g, 0, {}), "bfs_masked");
    expect_empty(bfs(g, 0), "bfs");
    expect_empty(bfs_push(g, 0), "bfs_push");
    expect_empty(bfs_bounded(g, 0, 3), "bfs_bounded");
    std::vector<BfsLevelStats> trace(2);
    expect_empty(bfs_hybrid(g, 0, forced_pull(), &trace), "bfs_hybrid");
    EXPECT_TRUE(trace.empty());
    expect_empty(bfs_compressed(c, 0), "bfs_compressed");
    BfsEngine engine;
    expect_empty(engine.run(c, 0), "engine.run compressed");
    // Reused buffers are emptied too, at every team width.
    BFSResult r = bfs_serial(gen::path_graph(5), 0);
    engine.run_into(g, 0, threads, {}, r);
    expect_empty(r, "engine.run_into");
    r = bfs_serial(gen::path_graph(5), 0);
    engine.run_into(c, 0, threads, {}, r);
    expect_empty(r, "engine.run_into compressed");
  }
}

TEST(FrontierEdgeCasesDeathTest, SourceOutOfRange) {
  const auto g = gen::path_graph(4);
  const CompressedCSR c = CompressedCSR::from_graph(g);
  EXPECT_DEATH((void)bfs_serial(g, 4), "source");
  EXPECT_DEATH((void)bfs_masked(g, -1, {}), "source");
  EXPECT_DEATH((void)bfs(g, 4), "source");
  EXPECT_DEATH((void)bfs_compressed(c, 7), "source");
}

TEST(FrontierEdgeCases, SingleVertex) {
  const auto g = CSRGraph::from_edges(1, {}, false);
  for (const auto& opts : {HybridBFSOptions{}, forced_pull()}) {
    const BFSResult r = bfs_hybrid(g, 0, opts);
    EXPECT_EQ(r.num_visited, 1);
    EXPECT_EQ(r.num_levels, 0);
    EXPECT_EQ(r.dist[0], 0);
    EXPECT_EQ(r.parent[0], 0);
  }
}

TEST(FrontierEdgeCases, IsolatedSource) {
  // Vertex 4 has no edges; the rest form a square.
  const auto g = CSRGraph::from_edges(
      5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0}}, false);
  for (const auto& opts : {HybridBFSOptions{}, forced_pull()}) {
    const BFSResult r = bfs_hybrid(g, 4, opts);
    EXPECT_EQ(r.num_visited, 1);
    EXPECT_EQ(r.num_levels, 0);
    EXPECT_EQ(r.dist[4], 0);
    for (vid_t v = 0; v < 4; ++v) {
      EXPECT_EQ(r.dist[static_cast<std::size_t>(v)], -1);
      EXPECT_EQ(r.parent[static_cast<std::size_t>(v)], kInvalidVid);
    }
  }
}

TEST(FrontierEdgeCases, StarGraphOneDenseLevel) {
  // One level, maximal fan-out: the shape where a hub frontier must not
  // serialize (push) and where pull terminates after a single level.
  const auto g = gen::star_graph(5000);
  const BFSResult oracle = bfs_serial(g, 0);
  for (const auto& opts : {HybridBFSOptions{}, forced_pull()}) {
    const BFSResult r = bfs_hybrid(g, 0, opts);
    EXPECT_EQ(r.dist, oracle.dist);
    EXPECT_EQ(r.num_levels, 1);
    EXPECT_EQ(r.num_visited, 5001);
  }
  // From a leaf: two levels, hub in the middle.
  const BFSResult leaf_oracle = bfs_serial(g, 17);
  for (const auto& opts : {HybridBFSOptions{}, forced_pull()}) {
    const BFSResult r = bfs_hybrid(g, 17, opts);
    EXPECT_EQ(r.dist, leaf_oracle.dist);
    EXPECT_EQ(r.num_levels, 2);
  }
}

TEST(FrontierEdgeCases, PathGraphStaysSparse) {
  // Diameter n-1, two arcs per level: with default knobs the heuristic must
  // never flip to pull (an O(n) scan per level would make the traversal
  // quadratic on exactly this shape).
  const auto g = gen::path_graph(64);
  std::vector<BfsLevelStats> trace;
  const BFSResult r = bfs_hybrid(g, 0, {}, &trace);
  const BFSResult oracle = bfs_serial(g, 0);
  EXPECT_EQ(r.dist, oracle.dist);
  ASSERT_EQ(static_cast<std::int64_t>(trace.size()), oracle.num_levels + 1);
  for (const auto& lv : trace) {
    EXPECT_FALSE(lv.pull) << "level " << lv.level;
    EXPECT_LE(lv.frontier_vertices, 1);
  }
  // Forced pull still gets the right answer, just expensively.
  EXPECT_EQ(bfs_hybrid(g, 0, forced_pull()).dist, oracle.dist);
}

TEST(FrontierEdgeCases, TraceIsConsistent) {
  gen::RmatParams p;
  p.scale = 10;
  p.edge_factor = 16;  // dense enough that the default heuristic pulls
  const auto g = gen::rmat(p);
  std::vector<BfsLevelStats> trace;
  const BFSResult r = bfs_hybrid(g, 0, {}, &trace);
  vid_t discovered = 1;  // source
  for (const auto& lv : trace) discovered += lv.discovered;
  EXPECT_EQ(discovered, r.num_visited);
  // Levels are 1-based and contiguous.
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(trace[i].level, static_cast<std::int64_t>(i) + 1);
}

TEST(FrontierEdgeCases, EngineIsReusableAcrossGraphsAndRuns) {
  BfsEngine engine;
  const auto big = gen::erdos_renyi(2000, 8000, false, 5);
  const auto small = gen::path_graph(7);
  const BFSResult b1 = engine.run(big, 0);
  const BFSResult s1 = engine.run(small, 0);   // shrinking reuse
  const BFSResult b2 = engine.run(big, 0);     // growing reuse
  EXPECT_EQ(b1.dist, b2.dist);
  EXPECT_EQ(b1.dist, bfs_serial(big, 0).dist);
  EXPECT_EQ(s1.dist, bfs_serial(small, 0).dist);
  // Width 1 into reused buffers, across graphs of both sizes.
  BFSResult r;
  engine.run_into(big, 0, 1, {}, r);
  EXPECT_EQ(r.dist, b1.dist);
  engine.run_into(small, 0, 1, {}, r);
  EXPECT_EQ(r.dist, s1.dist);
  EXPECT_EQ(r.num_visited, s1.num_visited);
  engine.run_into(big, 0, 1, forced_pull(), r);
  EXPECT_EQ(r.dist, b1.dist);
}

// ------------------------------------------------- expand_arc_balanced unit

/// Split one hub row across every team width: threads start mid-row, which
/// the contiguous layout indexes and the compressed layout decodes up to.
template <AdjacencyView G>
void expect_every_arc_once(const G& g) {
  std::vector<vid_t> frontier{0};
  std::vector<vid_t> next;
  FrontierPool pool;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(g.num_vertices()));
  for (int threads : {1, 2, 4}) {
    parallel::ThreadScope scope(threads);
    for (auto& h : hits) h.store(0);
    std::atomic<int> wrong_source{0};
    expand_arc_balanced(g, frontier, next, pool, threads,
                        [&](vid_t u, vid_t v) {
                          if (u != 0) wrong_source.fetch_add(1);
                          hits[static_cast<std::size_t>(v)].fetch_add(1);
                          return true;
                        });
    EXPECT_EQ(wrong_source.load(), 0);
    EXPECT_EQ(static_cast<vid_t>(next.size()), 3000);
    for (vid_t v = 1; v <= 3000; ++v)
      EXPECT_EQ(hits[static_cast<std::size_t>(v)].load(), 1) << v;
  }
}

TEST(ExpandArcBalanced, VisitsEveryFrontierArcExactlyOnce) {
  const auto g = gen::star_graph(3000);  // hub degree >> serial threshold
  expect_every_arc_once(g);
  expect_every_arc_once(CompressedCSR::from_graph(g));
}

// ------------------------------------------------- bounded BFS regression

/// Pin bfs_bounded to the truncated-oracle semantics on a given graph: for
/// every cutoff d, dist matches bfs_serial wherever serial dist <= d (-1
/// beyond), num_visited counts exactly those vertices, and num_levels is the
/// deepest distance actually assigned.
void check_bounded_against_truncated_oracle(const CSRGraph& g, vid_t source) {
  const BFSResult full = bfs_serial(g, source);
  for (std::int64_t d = 0; d <= full.num_levels + 2; ++d) {
    const BFSResult b = bfs_bounded(g, source, d);
    vid_t visited = 0;
    std::int64_t deepest = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const auto sv = static_cast<std::size_t>(v);
      const std::int64_t fd = full.dist[sv];
      const std::int64_t expect = (fd >= 0 && fd <= d) ? fd : -1;
      ASSERT_EQ(b.dist[sv], expect)
          << "cutoff " << d << " vertex " << v;
      if (expect >= 0) {
        ++visited;
        deepest = std::max(deepest, expect);
        ASSERT_NE(b.parent[sv], kInvalidVid);
      } else {
        ASSERT_EQ(b.parent[sv], kInvalidVid);
      }
    }
    EXPECT_EQ(b.num_visited, visited) << "cutoff " << d;
    EXPECT_EQ(b.num_levels, deepest) << "cutoff " << d;
  }
}

TEST(BoundedBfsRegression, CutoffAccountingPinnedOnStructuredShapes) {
  check_bounded_against_truncated_oracle(gen::path_graph(12), 0);
  check_bounded_against_truncated_oracle(gen::cycle_graph(9), 2);
  check_bounded_against_truncated_oracle(gen::star_graph(8), 0);
  check_bounded_against_truncated_oracle(gen::star_graph(8), 3);
  check_bounded_against_truncated_oracle(gen::barbell_graph(5), 0);
}

TEST(BoundedBfsRegression, CutoffAccountingPinnedOnRandomGraphs) {
  for (int threads : {1, 4}) {
    parallel::ThreadScope scope(threads);
    check_bounded_against_truncated_oracle(
        gen::erdos_renyi(300, 900, false, 4), 0);
    check_bounded_against_truncated_oracle(
        gen::watts_strogatz(200, 3, 0.2, 9), 5);
  }
}

TEST(BoundedBfsRegression, MatchesSerialAccountingWhenUnbounded) {
  const auto g = gen::erdos_renyi(500, 2500, false, 8);
  const BFSResult full = bfs_serial(g, 0);
  const BFSResult b = bfs_bounded(g, 0, 1 << 20);
  EXPECT_EQ(b.dist, full.dist);
  EXPECT_EQ(b.num_visited, full.num_visited);
  EXPECT_EQ(b.num_levels, full.num_levels);
}

}  // namespace
}  // namespace snap
