// Differential tests for the streaming-update engine: random update streams
// over R-MAT and Erdős–Rényi bases, applied batched-parallel at several
// thread counts, must produce snapshots byte-identical to serial
// one-edge-at-a-time application — and every observer must match a
// from-scratch recomputation after every batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "snap/debug/validate.hpp"
#include "snap/ds/union_find.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/stream/observers.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

using stream::ClusteringObserver;
using stream::ComponentsObserver;
using stream::DegreeStatsObserver;
using stream::StreamingGraph;
using stream::UpdateBatch;
using stream::UpdateRecord;
using stream::UpdateKind;

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void expect_same_csr(const CSRGraph& a, const CSRGraph& b,
                     const char* what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  ASSERT_EQ(a.num_arcs(), b.num_arcs()) << what;
  ASSERT_TRUE(same(a.row_offsets(), b.row_offsets())) << what << " offsets";
  ASSERT_TRUE(same(a.adjacency(), b.adjacency())) << what << " adjacency";
  ASSERT_TRUE(same(a.arc_weights(), b.arc_weights())) << what << " weights";
  ASSERT_TRUE(same(a.arc_edge_id_array(), b.arc_edge_id_array()))
      << what << " arc edge ids";
  ASSERT_EQ(a.edges(), b.edges()) << what << " edges";
  ASSERT_EQ(a.weighted(), b.weighted()) << what;
  ASSERT_EQ(a.adjacency_sorted(), b.adjacency_sorted()) << what;
}

/// A stream of batches over a biased vertex range, so deletions often hit
/// edges that exist (uniform pairs over n^2 almost never would).
std::vector<std::vector<UpdateRecord>> make_stream(vid_t n, int num_batches,
                                                   int batch_size,
                                                   int delete_pct,
                                                   std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::vector<UpdateRecord>> batches;
  std::uint64_t t = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<UpdateRecord>& recs = batches.emplace_back();
    for (int i = 0; i < batch_size; ++i) {
      const auto u = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(n)));
      const UpdateKind kind =
          rng.next_bounded(100) < static_cast<std::uint64_t>(delete_pct)
              ? UpdateKind::kDelete
              : UpdateKind::kInsert;
      recs.push_back({u, v, t++, kind});
    }
  }
  return batches;
}

/// The oracle: a plain DynamicGraph with every record applied one edge at a
/// time in stream order, via the public insert_edge/delete_edge API.
class SerialOracle {
 public:
  explicit SerialOracle(const CSRGraph& base)
      : g_(DynamicGraph::from_csr(base)) {}

  void apply(const std::vector<UpdateRecord>& recs) {
    for (const UpdateRecord& r : recs) {
      const vid_t hi = std::max(r.u, r.v);
      if (hi >= g_.num_vertices()) grow(hi + 1);
      if (r.kind == UpdateKind::kInsert)
        g_.insert_edge(r.u, r.v);
      else
        g_.delete_edge(r.u, r.v);
    }
  }

  [[nodiscard]] CSRGraph to_csr() const { return g_.to_csr(); }
  [[nodiscard]] const DynamicGraph& graph() const { return g_; }

 private:
  void grow(vid_t n) {
    // DynamicGraph has no public resize; re-inserting every edge into a
    // bigger graph is an oracle-grade (slow, simple) way to grow.  Walk the
    // adjacency itself — a to_csr() round trip would drop self loops.
    DynamicGraph bigger(n, g_.directed());
    for (vid_t u = 0; u < g_.num_vertices(); ++u)
      g_.for_each_neighbor(u, [&](vid_t v) {
        if (g_.directed() || u <= v) bigger.insert_edge(u, v);
      });
    g_ = std::move(bigger);
  }

  DynamicGraph g_;
};

struct ObserverChecks {
  bool check_clustering;  ///< undirected only
};

/// Drives one full differential run: same base + same stream through the
/// batched StreamingGraph (at `threads`) and the serial oracle; after every
/// batch the snapshots must be identical and every observer must agree with
/// a from-scratch recomputation on the oracle graph.
void run_differential(const CSRGraph& base,
                      const std::vector<std::vector<UpdateRecord>>& batches,
                      int threads, eid_t promote_threshold,
                      bool check_observers) {
  DynamicGraph dyn =
      DynamicGraph::from_csr(base, promote_threshold);
  StreamingGraph sg(std::move(dyn));
  SerialOracle oracle(base);

  ComponentsObserver comps(sg.graph());
  DegreeStatsObserver deg(sg.graph());
  std::unique_ptr<ClusteringObserver> cc;
  if (check_observers) {
    sg.add_observer(&comps);
    sg.add_observer(&deg);
    if (!base.directed()) {
      cc = std::make_unique<ClusteringObserver>(sg.graph());
      sg.add_observer(cc.get());
    }
  }

  parallel::ThreadScope scope(threads);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    UpdateBatch batch;
    for (const UpdateRecord& r : batches[b]) {
      if (r.kind == UpdateKind::kInsert)
        batch.insert(r.u, r.v, r.time);
      else
        batch.erase(r.u, r.v, r.time);
    }
    sg.apply(batch);
    oracle.apply(batches[b]);

    const CSRGraph got = sg.graph().to_csr();
    const CSRGraph want = oracle.to_csr();
    expect_same_csr(got, want,
                    ("batch " + std::to_string(b) + " threads " +
                     std::to_string(threads))
                        .c_str());
    if (::testing::Test::HasFatalFailure()) return;

    if (!check_observers) continue;

    // Components vs a fresh union–find over the snapshot's edges.
    {
      UnionFind uf(static_cast<std::size_t>(want.num_vertices()));
      for (const Edge& e : want.edges()) uf.unite(e.u, e.v);
      ASSERT_EQ(comps.num_components(), static_cast<vid_t>(uf.num_sets()))
          << "components @batch " << b;
    }
    // Degrees vs DynamicGraph::degree on the oracle.
    {
      ASSERT_EQ(deg.num_vertices(), oracle.graph().num_vertices());
      eid_t want_max = 0;
      for (vid_t v = 0; v < oracle.graph().num_vertices(); ++v) {
        const eid_t d = oracle.graph().degree(v);
        ASSERT_EQ(deg.degree(v), d) << "degree @batch " << b << " v " << v;
        want_max = std::max(want_max, d);
      }
      ASSERT_EQ(deg.max_degree(), want_max) << "max degree @batch " << b;
    }
    // Clustering vs the static metrics on the (self-loop-free) snapshot.
    if (cc) {
      ASSERT_NEAR(cc->global_clustering(),
                  global_clustering_coefficient(want), 1e-9)
          << "global cc @batch " << b;
      ASSERT_NEAR(cc->average_clustering(),
                  average_clustering_coefficient(want), 1e-9)
          << "average cc @batch " << b;
    }
  }
}

TEST(StreamDifferential, ErdosRenyiMixedStreamAllThreadCounts) {
  const CSRGraph base = gen::erdos_renyi(400, 1600, /*directed=*/false, 7);
  const auto batches = make_stream(420, /*num_batches=*/6,
                                   /*batch_size=*/800, /*delete_pct=*/35, 11);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, RmatMixedStreamAllThreadCounts) {
  gen::RmatParams p;
  p.scale = 9;  // 512 vertices
  p.edge_factor = 6;
  p.seed = 13;
  const CSRGraph base = gen::rmat(p);
  const auto batches =
      make_stream(base.num_vertices(), /*num_batches=*/5,
                  /*batch_size=*/1000, /*delete_pct=*/30, 29);
  for (int t : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, LowPromoteThresholdExercisesTreaps) {
  // promote_threshold = 2 promotes nearly every touched vertex to a treap,
  // so the parallel path must keep treap shapes byte-identical too.
  const CSRGraph base = gen::erdos_renyi(150, 700, false, 3);
  const auto batches = make_stream(150, 4, 600, 40, 17);
  for (int t : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/2,
                     /*check_observers=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, DirectedStream) {
  const CSRGraph base = gen::erdos_renyi(300, 1200, /*directed=*/true, 21);
  const auto batches = make_stream(310, 4, 700, 30, 5);
  for (int t : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamDifferential, InsertOnlyFromEmpty) {
  const CSRGraph base = CSRGraph::from_edges(0, {}, /*directed=*/false);
  const auto batches = make_stream(256, 5, 900, /*delete_pct=*/0, 41);
  for (int t : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    run_differential(base, batches, t, /*promote_threshold=*/128,
                     /*check_observers=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Owner groups at the apply's boundaries.  Vertex 250 starts isolated and
// takes threshold + 5 neighbours in one batch (its row is filled past the
// promote threshold by one group), then a group of present inserts, absent
// deletes and effective updates of both kinds; vertex 251's row is filled
// from empty, shrinks to empty in one group and regrows from empty, with an
// absent delete in both filling groups; vertex 255's row, filled from
// empty, takes a group of deletes and inserts (one present) that keeps its
// size and then one that grows it; self loops and both orientations of one
// edge appear in the same batch.  Every batch must leave the image and the
// ApplyStats the one-edge oracle gives.
std::vector<std::vector<UpdateRecord>> boundary_batches(eid_t threshold,
                                                        std::uint64_t seed) {
  const auto hub_span = static_cast<vid_t>(threshold + 5);
  std::vector<std::vector<UpdateRecord>> batches(3);
  std::uint64_t t = 0;
  const auto add = [&](std::size_t b, vid_t u, vid_t v, UpdateKind kind) {
    batches[b].push_back({u, v, t++, kind});
  };
  const auto ins = UpdateKind::kInsert;
  const auto del = UpdateKind::kDelete;
  SplitMix64 rng(seed);
  const auto random_mix = [&](std::size_t b) {
    for (int i = 0; i < 300; ++i)
      add(b, static_cast<vid_t>(rng.next_bounded(250)),
          static_cast<vid_t>(rng.next_bounded(250)),
          rng.next_bounded(3) == 0 ? del : ins);
  };

  for (vid_t v = 0; v < hub_span; ++v) add(0, 250, v, ins);
  add(0, 251, 252, ins);
  add(0, 251, 253, ins);
  add(0, 251, 254, del);  // absent, in a group on an empty row
  for (vid_t v = 1; v <= 5; ++v) add(0, 255, v, ins);
  add(0, 5, 5, ins);     // self loop
  add(0, 9, 9, del);     // absent self loop
  add(0, 10, 20, ins);   // both orientations of one edge...
  add(0, 20, 10, ins);
  add(0, 11, 21, ins);   // ...and an insert undone by its mirror's delete
  add(0, 21, 11, del);
  random_mix(0);

  for (vid_t v = 0; v < hub_span; v += 3) add(1, 250, v, ins);  // present
  for (vid_t v = 200; v < 210; ++v) add(1, 250, v, ins);        // absent
  for (vid_t v = 140; v < 146; ++v) add(1, 250, v, del);        // absent
  for (vid_t v = 1; v < hub_span; v += 5) add(1, v, 250, del);  // present
  add(1, 251, 252, del);  // 251's row shrinks to empty
  add(1, 253, 251, del);
  add(1, 251, 254, del);  // absent
  add(1, 5, 5, del);
  add(1, 7, 7, ins);
  add(1, 255, 2, del);  // 255: two out, two in, same size
  add(1, 255, 4, del);
  add(1, 255, 0, ins);
  add(1, 255, 6, ins);
  add(1, 255, 3, ins);  // present
  random_mix(1);

  add(2, 251, 260, ins);  // regrows from empty
  add(2, 251, 252, ins);
  add(2, 251, 261, del);  // absent
  add(2, 255, 7, ins);  // 255's row grows
  add(2, 255, 9, ins);
  add(2, 255, 1, del);
  for (vid_t v = 0; v < hub_span; ++v) add(2, 250, v, del);
  random_mix(2);
  return batches;
}

std::set<std::pair<vid_t, vid_t>> edge_set(const CSRGraph& g) {
  std::set<std::pair<vid_t, vid_t>> out;
  for (const Edge& e : g.edges()) out.insert({e.u, e.v});
  return out;
}

std::size_t count_missing(const std::set<std::pair<vid_t, vid_t>>& from,
                          const std::set<std::pair<vid_t, vid_t>>& in) {
  std::size_t n = 0;
  for (const auto& e : from) n += in.count(e) == 0 ? 1 : 0;
  return n;
}

TEST(StreamDifferential, GroupBoundariesMatchOneEdgeOracle) {
  // An Erdős–Rényi graph on 0..249; 250..299 start isolated.
  const CSRGraph er = gen::erdos_renyi(250, 800, false, 19);
  const CSRGraph base = CSRGraph::from_edges(300, er.edges().to_list(), false);
  for (const eid_t threshold : {2, 8, 128}) {
    const auto batches = boundary_batches(threshold, 23);
    for (const int threads : {1, 2, 4, 8}) {
      const std::string what = "threshold " + std::to_string(threshold) +
                                " threads " + std::to_string(threads);
      SCOPED_TRACE(what);
      StreamingGraph sg(DynamicGraph::from_csr(base, threshold));
      DynamicGraph oracle = DynamicGraph::from_csr(base, threshold);
      parallel::ThreadScope scope(threads);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto before = edge_set(oracle.to_csr());
        for (const UpdateRecord& r : batches[b]) {
          if (r.kind == UpdateKind::kInsert)
            oracle.insert_edge(r.u, r.v);
          else
            oracle.delete_edge(r.u, r.v);
        }
        const CSRGraph want = oracle.to_csr();
        const auto after = edge_set(want);

        UpdateBatch batch;
        batch.assign(batches[b]);
        const std::size_t arcs = batch.canonicalize(false).arcs.size();
        const stream::ApplyStats st = sg.apply(std::move(batch));
        EXPECT_EQ(st.raw_records, batches[b].size());
        EXPECT_EQ(st.canonical_arcs, arcs);
        EXPECT_EQ(st.applied_inserts, count_missing(after, before))
            << "batch " << b;
        EXPECT_EQ(st.applied_deletes, count_missing(before, after))
            << "batch " << b;
        const debug::ValidationReport report = debug::validate(sg.graph());
        ASSERT_TRUE(report.ok()) << report.to_string();
        expect_same_csr(sg.graph().to_csr(), want,
                        ("batch " + std::to_string(b)).c_str());
        if (::testing::Test::HasFatalFailure()) return;

        // The batches reach the boundaries they are named for.
        if (b == 0) {
          EXPECT_TRUE(sg.graph().is_promoted(250)) << "no upward crossing";
        }
        if (b == 1) {
          EXPECT_EQ(sg.graph().degree(251), 0) << "row 251 not emptied";
        }
      }
    }
  }
}

}  // namespace
}  // namespace snap
