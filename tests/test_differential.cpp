// Differential harness: every parallel traversal kernel is cross-checked
// against a serial oracle on every generator family at thread counts
// {1, 2, 4, 8}.  The oracle for BFS is bfs_serial; the oracle for connected
// components is a serial union-find sweep over the edge list.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>
#include <vector>

#include "snap/debug/determinism.hpp"
#include "snap/ds/union_find.hpp"
#include "snap/gen/generators.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/kernels/st_connectivity.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

constexpr int kNumGenerators = 5;

CSRGraph make_graph(int which) {
  switch (which) {
    case 0: {  // R-MAT: skewed degrees, the paper's small-world stress case
      gen::RmatParams p;
      p.scale = 10;
      p.edge_factor = 8;
      p.seed = 42;
      return gen::rmat(p);
    }
    case 1:  // Erdős–Rényi: uniform degrees
      return gen::erdos_renyi(1500, 6000, false, 3);
    case 2:  // Barabási–Albert: power-law via preferential attachment
      return gen::barabasi_albert(1200, 3, 5);
    case 3:  // Watts–Strogatz: high clustering, low diameter
      return gen::watts_strogatz(1000, 4, 0.1, 7);
    default:  // planted partition: community structure
      return gen::planted_partition(1200, 8, 6.0, 1.0, 11);
  }
}

std::vector<vid_t> sample_sources(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  return {0, n / 3, n - 1};
}

void expect_same_bfs(const BFSResult& got, const BFSResult& oracle,
                     const char* what) {
  ASSERT_EQ(got.dist.size(), oracle.dist.size()) << what;
  for (std::size_t v = 0; v < oracle.dist.size(); ++v)
    ASSERT_EQ(got.dist[v], oracle.dist[v]) << what << " vertex " << v;
  EXPECT_EQ(got.num_visited, oracle.num_visited) << what;
  EXPECT_EQ(got.num_levels, oracle.num_levels) << what;
}

void expect_valid_parents(const CSRGraph& g, const BFSResult& r, vid_t source,
                          const char* what) {
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (r.dist[sv] < 0) {
      EXPECT_EQ(r.parent[sv], kInvalidVid) << what << " vertex " << v;
      continue;
    }
    if (v == source) {
      EXPECT_EQ(r.parent[sv], source) << what;
      continue;
    }
    const vid_t p = r.parent[sv];
    ASSERT_NE(p, kInvalidVid) << what << " vertex " << v;
    EXPECT_EQ(r.dist[static_cast<std::size_t>(p)] + 1, r.dist[sv])
        << what << " vertex " << v;
    EXPECT_TRUE(g.has_edge(p, v)) << what << " vertex " << v;
  }
}

using DiffCase = std::tuple<int /*generator*/, int /*threads*/>;

class Differential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(Differential, PushBfsMatchesSerialOracle) {
  const auto [which, threads] = GetParam();
  const CSRGraph g = make_graph(which);
  parallel::ThreadScope scope(threads);
  for (vid_t s : sample_sources(g)) {
    const BFSResult oracle = bfs_serial(g, s);
    expect_same_bfs(bfs_push(g, s), oracle, "push");
  }
}

TEST_P(Differential, HybridBfsMatchesSerialOracle) {
  const auto [which, threads] = GetParam();
  const CSRGraph g = make_graph(which);
  parallel::ThreadScope scope(threads);
  for (vid_t s : sample_sources(g)) {
    const BFSResult oracle = bfs_serial(g, s);
    expect_same_bfs(bfs_hybrid(g, s), oracle, "hybrid-default");

    // Force the pull path on every eligible level.
    HybridBFSOptions pull;
    pull.alpha = 1e18;
    pull.beta = 1e18;
    pull.min_pull_arcs = 0;
    std::vector<BfsLevelStats> trace;
    expect_same_bfs(bfs_hybrid(g, s, pull, &trace), oracle, "forced-pull");
    bool any_pull = false;
    for (const auto& lv : trace) any_pull |= lv.pull;
    if (oracle.num_levels >= 1) {
      EXPECT_TRUE(any_pull) << "pull never engaged";
    }

    // The width-1 engine (plain per-level loops, reused buffers) must agree
    // too, with default and forced-pull knobs.
    BfsEngine engine;
    BFSResult r;
    engine.run_into(g, s, 1, {}, r);
    expect_same_bfs(r, oracle, "serial-hybrid");
    engine.run_into(g, s, 1, pull, r);
    expect_same_bfs(r, oracle, "serial-hybrid-pull");
  }
}

TEST_P(Differential, ParentTreesAreValid) {
  const auto [which, threads] = GetParam();
  const CSRGraph g = make_graph(which);
  parallel::ThreadScope scope(threads);
  const vid_t s = sample_sources(g)[0];
  expect_valid_parents(g, bfs_push(g, s), s, "push");
  expect_valid_parents(g, bfs_hybrid(g, s), s, "hybrid");
  BfsEngine engine;
  BFSResult r;
  engine.run_into(g, s, 1, {}, r);
  expect_valid_parents(g, r, s, "serial-hybrid");
}

TEST_P(Differential, ComponentsMatchUnionFindOracle) {
  const auto [which, threads] = GetParam();
  const CSRGraph g = make_graph(which);
  parallel::ThreadScope scope(threads);
  const Components cc = connected_components(g);

  UnionFind uf(static_cast<std::size_t>(g.num_vertices()));
  for (const Edge& e : g.edges()) uf.unite(e.u, e.v);
  ASSERT_EQ(static_cast<std::size_t>(cc.count), uf.num_sets());

  // Labels must induce the same partition: the label<->root maps are
  // functions in both directions.
  std::unordered_map<vid_t, std::int64_t> label_to_root;
  std::unordered_map<std::int64_t, vid_t> root_to_label;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const vid_t label = cc.label[static_cast<std::size_t>(v)];
    const std::int64_t root = uf.find(v);
    const auto [it, inserted] = label_to_root.try_emplace(label, root);
    EXPECT_EQ(it->second, root) << "vertex " << v;
    const auto [jt, jnew] = root_to_label.try_emplace(root, label);
    EXPECT_EQ(jt->second, label) << "vertex " << v;
  }
}

// Cross-thread-count invariance, on the shared harness (debug::
// check_determinism) instead of the ad-hoc compare-against-t=1 loops this
// file used to imply through its oracle: BFS distances and the component
// partition hash identically at every thread count, per generator family.
TEST(DifferentialInvariance, TraversalResultsHashIdenticallyAcrossThreads) {
  for (int which = 0; which < kNumGenerators; ++which) {
    const CSRGraph g = make_graph(which);
    const auto report = debug::check_determinism([&](debug::ByteHasher& h) {
      for (vid_t s : sample_sources(g)) {
        const BFSResult b = bfs_hybrid(g, s);
        h.sequence(b.dist);
        h.value(b.num_visited);
      }
      const Components cc = connected_components(g);
      h.value(cc.count);
      // Hash the partition, not the label values: renumber first-seen.
      std::vector<vid_t> remap(cc.label.size(), kInvalidVid);
      std::vector<vid_t> canon(cc.label.size());
      vid_t next = 0;
      for (std::size_t v = 0; v < cc.label.size(); ++v) {
        auto& slot = remap[static_cast<std::size_t>(cc.label[v])];
        if (slot == kInvalidVid) slot = next++;
        canon[v] = slot;
      }
      h.sequence(canon);
    });
    ASSERT_TRUE(report.deterministic)
        << "generator " << which << ": " << report.to_string();
  }
}

TEST_P(Differential, StConnectivityMatchesBfsDistance) {
  const auto [which, threads] = GetParam();
  const CSRGraph g = make_graph(which);
  parallel::ThreadScope scope(threads);
  const vid_t n = g.num_vertices();
  SplitMix64 rng(static_cast<std::uint64_t>(which) * 1000 + 17);
  const BFSResult from0 = bfs_serial(g, 0);
  for (int i = 0; i < 10; ++i) {
    const auto t = static_cast<vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(n)));
    const StConnectivity r = st_connectivity(g, 0, t);
    const std::int64_t d = from0.dist[static_cast<std::size_t>(t)];
    if (d < 0) {
      EXPECT_FALSE(r.connected) << "target " << t;
    } else {
      ASSERT_TRUE(r.connected) << "target " << t;
      EXPECT_EQ(r.distance, d) << "target " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsAndThreads, Differential,
    ::testing::Combine(::testing::Range(0, kNumGenerators),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace snap
