// Mutation tests for the structural validators (snap/debug/validate.hpp):
// corrupt one invariant of each structure through debug::Access and assert
// the validator reports it — with a message specific enough to debug from.
// Every structure also gets a clean-state "validates OK" check, so a
// validator that rejects healthy structures cannot hide behind these tests.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "snap/community/louvain.hpp"
#include "snap/community/modularity.hpp"
#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/ds/dendrogram.hpp"
#include "snap/ds/union_find.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/stream/streaming_graph.hpp"

namespace snap {
namespace {

using debug::Access;
using debug::ValidationReport;

bool mentions(const ValidationReport& r, const std::string& needle) {
  for (const std::string& e : r.errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

CSRGraph small_graph() {
  return CSRGraph::from_edges(
      6, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, /*directed=*/false);
}

// ------------------------------------------------------------------- CSR

TEST(ValidateCSR, CleanGraphPasses) {
  const CSRGraph g = gen::erdos_renyi(200, 800, /*directed=*/false, 5);
  const ValidationReport r = debug::validate(g);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.checks_run, 0u);
}

TEST(ValidateCSR, CorruptAdjacencyTargetCaught) {
  CSRGraph g = small_graph();
  Access::mutable_adj(g)[0] = 99;  // neighbor id far out of [0, n)
  const ValidationReport r = debug::validate(g);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "99")) << r.to_string();
}

TEST(ValidateCSR, BrokenRowSortCaught) {
  CSRGraph g = small_graph();
  // Vertex 2 has neighbors {0, 1, 3}; reversing two entries breaks the
  // sorted-adjacency contract (and arc/edge alignment).
  auto& adj = Access::mutable_adj(g);
  const auto& offs = Access::offsets(g);
  const auto lo = static_cast<std::size_t>(offs[2]);
  ASSERT_GE(offs[3] - offs[2], 2);
  std::swap(adj[lo], adj[lo + 1]);
  const ValidationReport r = debug::validate(g);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "sorted") || mentions(r, "arc")) << r.to_string();
}

TEST(ValidateCSR, NonMonotoneOffsetsCaught) {
  CSRGraph g = small_graph();
  auto& offs = Access::mutable_offsets(g);
  offs[2] = offs[3] + 1;
  const ValidationReport r = debug::validate(g);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "offsets")) << r.to_string();
}

// --------------------------------------------------------- DynamicGraph

TEST(ValidateDynamicGraph, CleanGraphPasses) {
  const DynamicGraph d =
      DynamicGraph::from_csr(gen::erdos_renyi(150, 600, false, 7));
  const ValidationReport r = debug::validate(d);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ValidateDynamicGraph, EdgeCountDriftCaught) {
  DynamicGraph d(4, /*directed=*/false);
  d.insert_edge(0, 1);
  d.insert_edge(1, 2);
  Access::mutable_edge_count(d) += 1;
  const ValidationReport r = debug::validate(d);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "drift") || mentions(r, "edge")) << r.to_string();
}

TEST(ValidateDynamicGraph, MissingMirrorArcCaught) {
  DynamicGraph d(4, /*directed=*/false);
  d.insert_edge(0, 1);
  d.insert_edge(2, 3);
  // Remove 1 from 0's row but leave 0 in 1's: asymmetry.
  auto& row = Access::mutable_rows(d)[0];
  ASSERT_EQ(row.size(), 1u);
  row.clear();
  const ValidationReport r = debug::validate(d);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "mirror") || mentions(r, "asym")) << r.to_string();
}

TEST(ValidateDynamicGraph, UnsortedFlatRowCaught) {
  // Same neighbour set, wrong order: only the ascending-row check sees it
  // (the mirror check scans a row that failed it linearly and still finds
  // every arc).
  DynamicGraph d(4, /*directed=*/false);
  d.insert_edge(0, 1);
  d.insert_edge(0, 2);
  d.insert_edge(0, 3);
  auto& row = Access::mutable_rows(d)[0];
  ASSERT_EQ(row, (std::vector<vid_t>{1, 2, 3}));
  ASSERT_TRUE(debug::validate(d).ok());
  std::swap(row[0], row[2]);
  const ValidationReport r = debug::validate(d);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "ascending")) << r.to_string();
  EXPECT_FALSE(mentions(r, "mirror")) << r.to_string();
}

// ------------------------------------------------------------ UnionFind

TEST(ValidateUnionFind, CleanForestPasses) {
  UnionFind uf(10);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(5, 6);
  const ValidationReport r = debug::validate(uf);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ValidateUnionFind, ParentCycleCaught) {
  UnionFind uf(6);
  uf.unite(0, 1);
  auto& parent = Access::mutable_parent(uf);
  // 2 -> 3 -> 2: a cycle no find() would ever terminate on.
  parent[2] = 3;
  parent[3] = 2;
  const ValidationReport r = debug::validate(uf);
  ASSERT_FALSE(r.ok());
}

TEST(ValidateUnionFind, ParentOutOfRangeCaught) {
  UnionFind uf(4);
  Access::mutable_parent(uf)[1] = 42;
  const ValidationReport r = debug::validate(uf);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "42")) << r.to_string();
}

// ----------------------------------------------------------- Dendrogram

TEST(ValidateDendrogram, CleanMergeSequencePasses) {
  MergeDendrogram d(4);
  d.record_merge(0, 1, 0.1);
  d.record_merge(2, 3, 0.2);
  d.record_merge(0, 2, 0.05);
  const ValidationReport r = debug::validate(d);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ValidateDendrogram, DuplicateMergeCaught) {
  MergeDendrogram d(4);
  d.record_merge(0, 1, 0.1);
  d.record_merge(1, 0, 0.2);  // already one cluster: not a laminar family
  const ValidationReport r = debug::validate(d);
  ASSERT_FALSE(r.ok());
}

TEST(ValidateDendrogram, RepresentativeOutOfRangeCaught) {
  MergeDendrogram d(3);
  d.record_merge(0, 7, 0.1);
  const ValidationReport r = debug::validate(d);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "7")) << r.to_string();
}

// ------------------------------------------------------------ Community

TEST(ValidateCommunity, ConsistentAssignmentPasses) {
  const CSRGraph g = small_graph();
  const std::vector<vid_t> membership{0, 0, 0, 1, 1, 1};
  const double q = modularity(g, membership);
  const ValidationReport r = debug::validate(g, membership, q);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ValidateCommunity, LabelGapCaught) {
  const CSRGraph g = small_graph();
  const std::vector<vid_t> membership{0, 0, 0, 2, 2, 2};  // label 1 unused
  const ValidationReport r =
      debug::validate(g, membership, modularity(g, membership));
  ASSERT_FALSE(r.ok());
}

TEST(ValidateCommunity, WrongModularityCaught) {
  const CSRGraph g = small_graph();
  const std::vector<vid_t> membership{0, 0, 0, 1, 1, 1};
  const double q = modularity(g, membership);
  const ValidationReport r = debug::validate(g, membership, q + 0.25);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "modularity")) << r.to_string();
}

// --------------------------------------------------------- Louvain level

/// The planted-partition fine graph the Louvain mutation tests run on: the
/// planted structure guarantees moves, so the hierarchy has a first level.
CSRGraph louvain_fine_graph() {
  return gen::planted_partition(120, 4, /*deg_in=*/10.0, /*deg_out=*/1.0, 19);
}

TEST(ValidateLouvain, CleanLevelPasses) {
  const CSRGraph g = louvain_fine_graph();
  const LouvainResult r = louvain(g);
  ASSERT_FALSE(r.levels.empty());
  const ValidationReport rep = debug::validate(g, r.levels.front());
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(rep.checks_run, 0u);
}

TEST(ValidateLouvain, CorruptMembershipCaught) {
  const CSRGraph g = louvain_fine_graph();
  LouvainResult r = louvain(g);
  ASSERT_FALSE(r.levels.empty());
  // Point one vertex at a community id past the dense range: the validator
  // must name the out-of-range label (and the volume table now disagrees
  // with the membership too).
  Access::mutable_louvain_membership(r.levels.front())[3] =
      r.levels.front().num_communities() + 7;
  const ValidationReport rep = debug::validate(g, r.levels.front());
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(mentions(rep, "label")) << rep.to_string();
}

TEST(ValidateLouvain, CorruptVolumeTableCaught) {
  const CSRGraph g = louvain_fine_graph();
  LouvainResult r = louvain(g);
  ASSERT_FALSE(r.levels.empty());
  Access::mutable_louvain_volume(r.levels.front())[0] += 5.0;
  const ValidationReport rep = debug::validate(g, r.levels.front());
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(mentions(rep, "volume")) << rep.to_string();
}

// -------------------------------------------------------- StreamingGraph

TEST(ValidateStreamingGraph, FreshSnapshotCoherent) {
  stream::StreamingGraph sg(8, /*directed=*/false);
  stream::UpdateBatch b;
  b.insert(0, 1);
  b.insert(1, 2);
  b.insert(2, 2);  // self loop must survive into the snapshot
  sg.apply(b);
  ASSERT_EQ(sg.pin()->graph().num_edges(), 3);
  const ValidationReport r = debug::validate(sg);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// --------------------------------------------------- check macro plumbing

using ValidatorDeathTest = ::testing::Test;

TEST(ValidatorDeathTest, SnapAssertAbortsWithMessage) {
  EXPECT_DEATH(SNAP_ASSERT(1 + 1 == 3, "arithmetic broke: ", 1 + 1),
               "SNAP_ASSERT.*arithmetic broke");
}

#if SNAP_CHECK_LEVEL >= 1
TEST(ValidatorDeathTest, SnapDcheckAbortsAtLevelOne) {
  EXPECT_DEATH(SNAP_DCHECK(false, "dcheck fired"), "SNAP_DCHECK");
}
#endif

#if SNAP_CHECK_LEVEL >= 2
TEST(ValidatorDeathTest, SnapValidateAbortsOnCorruptGraph) {
  CSRGraph g = small_graph();
  Access::mutable_adj(g)[0] = -5;
  EXPECT_DEATH(SNAP_VALIDATE(g), "SNAP_VALIDATE");
}
#endif

// Disabled tiers must still compile their operands (no -Wunused fallout) and
// never evaluate them.
TEST(ValidatorDeathTest, DisabledTiersDoNotEvaluate) {
#if SNAP_CHECK_LEVEL < 2
  int evaluations = 0;
  SNAP_CHECK_EXPENSIVE([&] {
    ++evaluations;
    return true;
  }(),
                       "never printed");
  EXPECT_EQ(evaluations, 0);
#else
  GTEST_SKIP() << "expensive tier enabled at this SNAP_CHECK_LEVEL";
#endif
}

}  // namespace
}  // namespace snap
