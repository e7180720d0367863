// Differential tests for the parallel Louvain engine: the parallel move
// phase (per-thread move lists merged in ascending vertex order against
// frozen sub-round state) must produce a bitwise-identical hierarchy to the
// serial reference path — same levels, same memberships, same volume
// tables, same dendrogram, same modularity — at every thread count.  The
// two paths share the ΔQ arithmetic but orchestrate independently, so the
// comparison tests the orchestration (bucketing, scratch reuse, delta
// merging), which is where scheduling bugs live.
//
// Label propagation is held to its own contract: a converged run must be a
// plurality fixed point (no vertex sees a strictly heavier neighboring
// label), and serial and parallel paths must still agree bitwise since both
// replay the same frozen-state update sequence.
//
// The statistical acceptance tests pin recovery quality on a fixed-seed
// planted-partition instance: NMI against the planted ground truth above a
// threshold, and Louvain modularity at least pLA's on the same instance.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snap/community/compare.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/pla.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

CSRGraph rmat_graph(int scale, int edge_factor, std::uint64_t seed) {
  gen::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return gen::rmat(p);
}

/// The four-instance family of the differential sweep: a random graph (no
/// real community structure — moves are gain-marginal, the hardest case for
/// tie handling), a skewed small-world graph, a planted-partition graph
/// (clear structure, multiple coarsening levels), and two cliques joined by
/// a bridge (a clean two-community instance).
std::vector<std::pair<std::string, CSRGraph>> instances() {
  std::vector<std::pair<std::string, CSRGraph>> out;
  out.emplace_back("er", gen::erdos_renyi(240, 720, /*directed=*/false, 5));
  out.emplace_back("rmat", rmat_graph(/*scale=*/7, /*edge_factor=*/5, 7));
  out.emplace_back("planted",
                   gen::planted_partition(400, 8, /*deg_in=*/10.0,
                                          /*deg_out=*/1.5, 11));
  out.emplace_back("two-cliques", gen::barbell_graph(8));
  return out;
}

void expect_identical_hierarchies(const LouvainResult& a,
                                  const LouvainResult& b,
                                  const std::string& what) {
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t l = 0; l < a.levels.size(); ++l) {
    const LouvainLevel& la = a.levels[l];
    const LouvainLevel& lb = b.levels[l];
    EXPECT_EQ(la.membership(), lb.membership()) << what << " level " << l;
    EXPECT_EQ(la.community_volume(), lb.community_volume())
        << what << " level " << l;
    EXPECT_EQ(la.num_communities(), lb.num_communities())
        << what << " level " << l;
    // Bitwise: both paths must run the identical fixed-order arithmetic.
    EXPECT_EQ(la.modularity(), lb.modularity()) << what << " level " << l;
    EXPECT_EQ(la.sweeps(), lb.sweeps()) << what << " level " << l;
    EXPECT_EQ(la.moves(), lb.moves()) << what << " level " << l;
  }
  const auto& ma = a.community.dendrogram.merges();
  const auto& mb = b.community.dendrogram.merges();
  ASSERT_EQ(ma.size(), mb.size()) << what;
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].a, mb[i].a) << what << " merge " << i;
    EXPECT_EQ(ma[i].b, mb[i].b) << what << " merge " << i;
    EXPECT_EQ(ma[i].modularity, mb[i].modularity) << what << " merge " << i;
  }
  EXPECT_EQ(a.community.dendrogram.baseline(), b.community.dendrogram.baseline())
      << what;
  EXPECT_EQ(a.refine_moves, b.refine_moves) << what;
  EXPECT_EQ(a.community.clustering.membership, b.community.clustering.membership)
      << what;
  EXPECT_EQ(a.community.clustering.num_clusters,
            b.community.clustering.num_clusters)
      << what;
  EXPECT_EQ(a.community.modularity, b.community.modularity) << what;
  EXPECT_EQ(a.community.iterations, b.community.iterations) << what;
}

class LouvainDifferential : public ::testing::TestWithParam<int> {};

TEST_P(LouvainDifferential, ParallelMatchesSerialOracle) {
  parallel::ThreadScope scope(GetParam());
  for (const auto& [name, g] : instances()) {
    LouvainParams serial;
    serial.path = ExecPath::kSerial;
    LouvainParams parallel_p = serial;
    parallel_p.path = ExecPath::kParallel;
    const LouvainResult a = louvain(g, serial);
    const LouvainResult b = louvain(g, parallel_p);
    expect_identical_hierarchies(a, b, name);
  }
}

TEST_P(LouvainDifferential, RefinementOffStillMatches) {
  parallel::ThreadScope scope(GetParam());
  for (const auto& [name, g] : instances()) {
    LouvainParams serial;
    serial.path = ExecPath::kSerial;
    serial.refine = false;
    LouvainParams parallel_p = serial;
    parallel_p.path = ExecPath::kParallel;
    expect_identical_hierarchies(louvain(g, serial), louvain(g, parallel_p),
                                 name);
  }
}

TEST_P(LouvainDifferential, LouvainFindsObviousStructure) {
  parallel::ThreadScope scope(GetParam());
  const CSRGraph g = gen::barbell_graph(8);
  const LouvainResult r = louvain(g);
  // Two cliques joined by one bridge: the optimum is the two cliques.
  EXPECT_EQ(r.community.clustering.num_clusters, 2);
  EXPECT_GT(r.community.modularity, 0.3);
}

TEST_P(LouvainDifferential, PlpConvergesToPluralityFixedPoint) {
  parallel::ThreadScope scope(GetParam());
  for (const auto& [name, g] : instances()) {
    LabelPropParams p;
    p.path = ExecPath::kParallel;
    const LabelPropResult r = label_propagation(g, p);
    ASSERT_TRUE(r.converged) << name << ": no fixed point within "
                             << p.max_sweeps << " sweeps";
    // Fixed-point contract: converged means no vertex sees a strictly
    // heavier label.  Checked on the raw (pre-normalization) semantics via
    // a fresh serial run — normalize_labels relabels but preserves the
    // partition, so the check runs on the membership directly.
    EXPECT_TRUE(is_plurality_fixed_point(g, r.community.clustering.membership))
        << name;
  }
}

TEST_P(LouvainDifferential, PlpParallelMatchesSerial) {
  parallel::ThreadScope scope(GetParam());
  for (const auto& [name, g] : instances()) {
    LabelPropParams serial;
    serial.path = ExecPath::kSerial;
    LabelPropParams parallel_p = serial;
    parallel_p.path = ExecPath::kParallel;
    const LabelPropResult a = label_propagation(g, serial);
    const LabelPropResult b = label_propagation(g, parallel_p);
    EXPECT_EQ(a.community.clustering.membership,
              b.community.clustering.membership)
        << name;
    EXPECT_EQ(a.community.modularity, b.community.modularity) << name;
    EXPECT_EQ(a.sweeps, b.sweeps) << name;
    EXPECT_EQ(a.converged, b.converged) << name;
    EXPECT_EQ(a.community.iterations, b.community.iterations) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, LouvainDifferential,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------- statistical
// Fixed-seed planted-partition recovery.  The thresholds are calibrated with
// slack against the measured values (see CHANGES.md PR 6): they pin "the
// engine recovers obvious planted structure", not an exact score.

TEST(LouvainStatistical, RecoversPlantedPartition) {
  std::vector<vid_t> truth;
  const CSRGraph g = gen::planted_partition(4000, 10, /*deg_in=*/12.0,
                                            /*deg_out=*/2.0, 97, &truth);
  const LouvainResult r = louvain(g);
  const double nmi =
      normalized_mutual_information(r.community.clustering.membership, truth);
  EXPECT_GE(nmi, 0.85) << "Louvain NMI vs planted ground truth collapsed";
  const CommunityResult greedy = pla(g);
  EXPECT_GE(r.community.modularity, greedy.modularity)
      << "Louvain modularity fell below pLA's on the same instance";
}

TEST(LouvainStatistical, PlpRecoversPlantedPartition) {
  std::vector<vid_t> truth;
  const CSRGraph g = gen::planted_partition(4000, 10, /*deg_in=*/12.0,
                                            /*deg_out=*/2.0, 97, &truth);
  const LabelPropResult r = label_propagation(g);
  const double nmi =
      normalized_mutual_information(r.community.clustering.membership, truth);
  EXPECT_GE(nmi, 0.70) << "PLP NMI vs planted ground truth collapsed";
}

}  // namespace
}  // namespace snap
