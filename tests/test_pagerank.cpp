// PageRank differential suite.  The engines compute in 64-bit fixed-point
// mass (total 2^60) where every reduction is an exact integer sum, so ALL
// paths — serial oracle, ordered-reduction parallel, compressed-CSR, and
// owner-computes partitioned with boundary sum-combining — must agree
// BITWISE on the mass vector at every thread count and shard count.  The
// suite sweeps the generator zoo x ThreadScope {1,2,4,8} x shards
// {1,2,4,7}, plus sanity checks against closed-form stationary
// distributions (cycle, complete, star) and the exchange-traffic counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/partition/partitioned_csr.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

CSRGraph rmat_graph(int scale, int epf, std::uint64_t seed) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = epf;
  p.seed = seed;
  p.directed = false;
  return gen::rmat(p);
}

std::vector<std::pair<std::string, CSRGraph>> instances() {
  std::vector<std::pair<std::string, CSRGraph>> out;
  out.emplace_back("er", gen::erdos_renyi(240, 720, false, 5));
  out.emplace_back("rmat", rmat_graph(7, 5, 7));
  out.emplace_back("ws", gen::watts_strogatz(300, 6, 0.1, 13));
  out.emplace_back("planted", gen::planted_partition(400, 8, 10.0, 1.5, 11));
  out.emplace_back("star", gen::star_graph(64));
  out.emplace_back("path", gen::path_graph(50));
  return out;
}

void expect_identical(const PageRankResult& a, const PageRankResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.mass, b.mass) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.residual, b.residual) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
}

TEST(PageRank, MassConservesAndRanksSumToOne) {
  const CSRGraph g = rmat_graph(8, 6, 3);
  const PageRankResult r = pagerank(g);
  const std::uint64_t total =
      std::accumulate(r.mass.begin(), r.mass.end(), std::uint64_t{0});
  EXPECT_EQ(total, kPageRankTotalMass);
  const double sum = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(r.iterations, 0);
}

TEST(PageRank, UniformOnVertexTransitiveGraphs) {
  // On a cycle and a complete graph the stationary distribution is uniform;
  // the fixed-point iteration preserves it exactly up to the +-1 ulp
  // remainder spread, so masses differ by at most 1.
  for (const CSRGraph& g : {gen::cycle_graph(9), gen::complete_graph(8)}) {
    const PageRankResult r = pagerank(g);
    const auto [lo, hi] = std::minmax_element(r.mass.begin(), r.mass.end());
    EXPECT_LE(*hi - *lo, 1u);
  }
}

TEST(PageRank, StarHubDominatesLeaves) {
  const CSRGraph g = gen::star_graph(32);
  const PageRankResult r = pagerank(g);
  for (std::size_t v = 1; v < r.rank.size(); ++v)
    EXPECT_GT(r.rank[0], r.rank[v]) << "leaf " << v;
}

TEST(PageRank, ToleranceStopsEarly) {
  const CSRGraph g = gen::complete_graph(16);
  PageRankParams p;
  p.max_iters = 100;
  p.tol = 1e-6;
  const PageRankResult r = pagerank(g, p);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.residual, 1e-6);
}

TEST(PageRank, SerialAndParallelPathsAreBitwiseIdentical) {
  for (const auto& [name, g] : instances()) {
    PageRankParams ps;
    ps.path = ExecPath::kSerial;
    const PageRankResult oracle = pagerank(g, ps);
    for (const int nt : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(nt);
      PageRankParams pp;
      pp.path = ExecPath::kParallel;
      expect_identical(pagerank(g, pp), oracle,
                       name + " threads=" + std::to_string(nt));
    }
  }
}

TEST(PageRank, CompressedMatchesFlatBitwise) {
  for (const auto& [name, g] : instances()) {
    const PageRankResult flat = pagerank(g);
    const CompressedCSR c = CompressedCSR::from_graph(g);
    for (const int nt : {1, 4}) {
      parallel::ThreadScope scope(nt);
      expect_identical(pagerank_compressed(c), flat,
                       name + " threads=" + std::to_string(nt));
    }
  }
}

class PageRankPartitioned : public ::testing::TestWithParam<int> {};

TEST_P(PageRankPartitioned, MatchesFlatBitwiseAtEveryShardCount) {
  parallel::ThreadScope scope(GetParam());
  for (const auto& [name, g] : instances()) {
    PageRankParams ps;
    ps.path = ExecPath::kSerial;
    const PageRankResult oracle = pagerank(g, ps);
    for (const int k : {1, 2, 4, 7}) {
      PartitionedCSROptions opts;
      opts.num_shards = k;
      opts.use_partitioner = false;
      const PartitionedCSR part = PartitionedCSR::build(g, opts);
      const PartitionedPageRank pr = part.pagerank();
      expect_identical(pr.result, oracle,
                       name + " shards=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PageRankPartitioned,
                         ::testing::Values(1, 2, 4, 8));

TEST(PageRankPartitionedSuite, MultilevelCutAlsoMatchesFlat) {
  // The bitwise claim must hold for ANY vertex-disjoint cut, not just the
  // contiguous chunking the sweep above pins — exercise the real partitioner.
  const CSRGraph g = rmat_graph(9, 6, 21);
  const PageRankResult oracle = pagerank(g);
  PartitionedCSROptions opts;
  opts.num_shards = 4;
  opts.use_partitioner = true;
  const PartitionedCSR part = PartitionedCSR::build(g, opts);
  expect_identical(part.pagerank().result, oracle, "multilevel cut");
}

TEST(PageRankPartitionedSuite, CombinerReducesBoundaryTraffic) {
  // On a connected small-world cut, many cut edges share a boundary target:
  // the combiner must merge a nonzero number of per-edge pushes, and
  // staged messages per iteration can never exceed the naive per-edge count.
  const CSRGraph g = rmat_graph(9, 8, 5);
  PartitionedCSROptions opts;
  opts.num_shards = 4;
  opts.use_partitioner = false;
  const PartitionedCSR part = PartitionedCSR::build(g, opts);
  ASSERT_GT(part.boundary_arcs(), 0);
  PageRankParams p;
  p.max_iters = 5;
  p.tol = 0.0;
  const PartitionedPageRank pr = part.pagerank(p);
  EXPECT_GT(pr.boundary_messages, 0u);
  EXPECT_GT(pr.combined_messages, 0u);
  // naive pushes = messages actually staged + pushes merged away.
  const std::uint64_t naive = pr.boundary_messages + pr.combined_messages;
  EXPECT_LT(pr.boundary_messages, naive);
}

TEST(PageRankPartitionedSuite, SingleShardHasNoBoundaryTraffic) {
  const CSRGraph g = rmat_graph(7, 5, 9);
  PartitionedCSROptions opts;
  opts.num_shards = 1;
  opts.use_partitioner = false;
  const PartitionedCSR part = PartitionedCSR::build(g, opts);
  const PartitionedPageRank pr = part.pagerank();
  EXPECT_EQ(pr.boundary_messages, 0u);
  EXPECT_EQ(pr.combined_messages, 0u);
  expect_identical(pr.result, pagerank(g), "k=1");
}

}  // namespace
}  // namespace snap
