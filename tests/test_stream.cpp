// Unit tests for the streaming-update engine: batch canonicalization
// (last-writer-wins semantics), parallel application, epoch snapshots, and
// the three incremental observers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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

using stream::AppliedBatch;
using stream::ApplyStats;
using stream::ClusteringObserver;
using stream::ComponentsObserver;
using stream::DegreeStatsObserver;
using stream::StreamingGraph;
using stream::UpdateBatch;
using stream::UpdateKind;

void expect_same_csr(const CSRGraph& a, const CSRGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.directed(), b.directed());
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.arc_begin(v), b.arc_begin(v)) << "offsets differ at " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "adjacency differs at " << v;
    const auto wa = a.weights(v);
    const auto wb = b.weights(v);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << "weights differ at " << v;
  }
}

// ------------------------------------------------------------ canonicalize

TEST(UpdateBatch, CanonicalizeExpandsUndirectedArcs) {
  UpdateBatch b;
  b.insert(1, 2);
  const auto cb = b.canonicalize(/*directed=*/false);
  ASSERT_EQ(cb.arcs.size(), 2u);
  EXPECT_EQ(cb.arcs[0].owner, 1);
  EXPECT_EQ(cb.arcs[0].nbr, 2);
  EXPECT_EQ(cb.arcs[1].owner, 2);
  EXPECT_EQ(cb.arcs[1].nbr, 1);
  EXPECT_EQ(cb.max_vid, 2);
  EXPECT_EQ(cb.raw_records, 1u);

  const auto cd = b.canonicalize(/*directed=*/true);
  ASSERT_EQ(cd.arcs.size(), 1u);
  EXPECT_EQ(cd.arcs[0].owner, 1);
}

TEST(UpdateBatch, LastWriterWinsInsertThenDelete) {
  UpdateBatch b;
  b.insert(0, 1);
  b.erase(0, 1);
  const auto cb = b.canonicalize(false);
  ASSERT_EQ(cb.arcs.size(), 2u);  // one surviving record per direction
  EXPECT_EQ(cb.arcs[0].kind, UpdateKind::kDelete);
  EXPECT_EQ(cb.arcs[1].kind, UpdateKind::kDelete);
}

TEST(UpdateBatch, LastWriterWinsDeleteThenInsert) {
  UpdateBatch b;
  b.erase(0, 1);
  b.insert(0, 1);
  const auto cb = b.canonicalize(false);
  ASSERT_EQ(cb.arcs.size(), 2u);
  EXPECT_EQ(cb.arcs[0].kind, UpdateKind::kInsert);
}

TEST(UpdateBatch, SelfLoopDedupesToOneArc) {
  UpdateBatch b;
  b.insert(3, 3);
  const auto cb = b.canonicalize(false);
  ASSERT_EQ(cb.arcs.size(), 1u);
  EXPECT_EQ(cb.arcs[0].owner, 3);
  EXPECT_EQ(cb.arcs[0].nbr, 3);
}

TEST(UpdateBatch, RejectsNegativeIds) {
  UpdateBatch b;
  EXPECT_THROW(b.insert(-1, 2), std::invalid_argument);
  EXPECT_THROW(b.erase(0, -7), std::invalid_argument);
}

TEST(UpdateBatch, CanonicalizeIsThreadCountInvariant) {
  UpdateBatch b;
  SplitMix64 rng(5);
  for (int i = 0; i < 50000; ++i) {
    const auto u = static_cast<vid_t>(rng.next_bounded(300));
    const auto v = static_cast<vid_t>(rng.next_bounded(300));
    if (rng.next_bounded(3) == 0)
      b.erase(u, v, static_cast<std::uint64_t>(i));
    else
      b.insert(u, v, static_cast<std::uint64_t>(i));
  }
  parallel::ThreadScope s1(1);
  const auto ref = b.canonicalize(false);
  for (int t : {2, 4, 8}) {
    parallel::ThreadScope st(t);
    const auto cb = b.canonicalize(false);
    ASSERT_EQ(cb.arcs.size(), ref.arcs.size()) << "threads=" << t;
    for (std::size_t i = 0; i < cb.arcs.size(); ++i) {
      EXPECT_EQ(cb.arcs[i].owner, ref.arcs[i].owner);
      EXPECT_EQ(cb.arcs[i].nbr, ref.arcs[i].nbr);
      EXPECT_EQ(cb.arcs[i].seq, ref.arcs[i].seq);
      EXPECT_EQ(cb.arcs[i].kind, ref.arcs[i].kind);
    }
  }
}

/// Batch shapes for the oracle test; `kind` picks how record i is drawn.
UpdateBatch oracle_batch(int kind, std::size_t size, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const auto pick = [&](std::uint64_t bound) {
    return static_cast<vid_t>(rng.next_bounded(bound));
  };
  UpdateBatch b;
  vid_t owner = 0;  // shape 5: the owner being rendered, its last neighbour
  vid_t last = 0;
  for (std::size_t i = 0; i < size; ++i) {
    vid_t u = 0;
    vid_t v = 0;
    bool erase = rng.next_bounded(3) == 0;
    switch (kind) {
      case 0:  // heavy duplicates over 5 ids
        u = pick(5);
        v = pick(5);
        break;
      case 1:  // sparse ids over 2^20
        u = pick(1 << 20);
        v = pick(1 << 20);
        break;
      case 2:  // one hub owner holds half the arcs
        u = i % 2 == 0 ? 7 : pick(4096);
        v = pick(4096);
        break;
      case 3:  // a self loop every 17th record
        u = pick(2000);
        v = i % 17 == 0 ? u : pick(2000);
        break;
      case 5:  // a preload: owners ascending, each owner's neighbours (at
               // most the owner) ascending, and every 250th record repeats
               // or deletes one of the 200 before it
        if (i % 250 == 249) {
          const stream::UpdateRecord& r = b.records()[i - 1 - pick(200)];
          u = r.u;
          v = r.v;
        } else {
          last += 1 + pick(24);
          if (last > owner) {
            owner += 1 + pick(2);
            last = std::min(pick(4), owner);
          }
          u = owner;
          v = last;
          erase = false;
        }
        break;
      case 6:  // dense ids in shuffled order: about one owner per run
        u = pick(1 << 13);
        v = pick(1 << 13);
        break;
      case 7:  // ids spread up to 2^62: owner ranges take the widest shifts
        u = (pick(512) << 53) + pick(3);
        v = i % 97 == 0 ? (vid_t{1} << 62) - 1 : (pick(512) << 53) + pick(3);
        break;
      default:  // one edge toggled 10,000 times, in both orientations
        if (i < 10000) {
          u = i % 4 < 2 ? 3 : 9;
          v = u == 3 ? 9 : 3;
          erase = i % 2 == 1;
        } else {
          u = pick(1000);
          v = pick(1000);
        }
        break;
    }
    if (erase)
      b.erase(u, v, i);
    else
      b.insert(u, v, i);
  }
  return b;
}

TEST(UpdateBatch, CanonicalizeMatchesSerialOracle) {
  constexpr std::size_t kCutoff = std::size_t{1} << 14;
  for (int kind = 0; kind < 8; ++kind) {
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, kCutoff - 1, kCutoff, kCutoff + 1,
          std::size_t{100000}}) {
      const UpdateBatch b = oracle_batch(kind, size, 11 + kind);
      for (const bool directed : {true, false}) {
        // Serial oracle: apply the records in order to a map keyed by arc;
        // later records overwrite earlier ones.
        std::map<std::pair<vid_t, vid_t>, std::pair<eid_t, UpdateKind>> last;
        vid_t max_vid = -1;
        for (std::size_t i = 0; i < b.size(); ++i) {
          const auto& r = b.records()[i];
          const std::pair<eid_t, UpdateKind> w{static_cast<eid_t>(i), r.kind};
          last[{r.u, r.v}] = w;
          if (!directed) last[{r.v, r.u}] = w;
          max_vid = std::max({max_vid, r.u, r.v});
        }
        for (const int t : {1, 2, 3, 4, 8}) {
          parallel::ThreadScope scope(t);
          const auto cb = b.canonicalize(directed);
          SCOPED_TRACE(::testing::Message()
                       << "shape " << kind << " size " << size << " directed "
                       << directed << " threads " << t);
          EXPECT_EQ(cb.max_vid, max_vid);
          EXPECT_EQ(cb.raw_records, size);
          ASSERT_EQ(cb.arcs.size(), last.size());
          std::size_t i = 0;
          for (const auto& [arc, w] : last) {
            const stream::ArcUpdate& a = cb.arcs[i++];
            ASSERT_EQ(a.owner, arc.first) << "arc " << i - 1;
            ASSERT_EQ(a.nbr, arc.second) << "arc " << i - 1;
            ASSERT_EQ(a.seq, w.first) << "arc " << i - 1;
            ASSERT_EQ(a.kind, w.second) << "arc " << i - 1;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------- apply

TEST(StreamingGraph, ApplyCountsEffectiveChangesOnly) {
  StreamingGraph sg(8, /*directed=*/false);
  UpdateBatch b;
  b.insert(0, 1);
  b.insert(0, 1);       // duplicate in batch
  b.insert(1, 2);
  b.erase(5, 6);        // absent: no-op
  const ApplyStats st = sg.apply(b);
  EXPECT_EQ(st.raw_records, 4u);
  EXPECT_EQ(st.applied_inserts, 2u);
  EXPECT_EQ(st.applied_deletes, 0u);
  EXPECT_EQ(sg.graph().num_edges(), 2);
  EXPECT_TRUE(sg.graph().has_edge(0, 1));
  EXPECT_TRUE(sg.graph().has_edge(2, 1));

  // Re-applying the same inserts is a no-op.
  UpdateBatch b2;
  b2.insert(1, 0);
  const ApplyStats st2 = sg.apply(b2);
  EXPECT_EQ(st2.applied_inserts, 0u);
  EXPECT_EQ(sg.graph().num_edges(), 2);
}

TEST(StreamingGraph, InsertDeleteOfSameEdgeInOneBatchResolvesToDelete) {
  StreamingGraph sg(4, false);
  UpdateBatch b;
  b.insert(0, 1);
  b.erase(0, 1);
  sg.apply(b);
  EXPECT_FALSE(sg.graph().has_edge(0, 1));
  EXPECT_EQ(sg.graph().num_edges(), 0);

  // And with the edge pre-existing, delete-then-insert keeps it.
  UpdateBatch pre;
  pre.insert(2, 3);
  sg.apply(pre);
  UpdateBatch b2;
  b2.erase(2, 3);
  b2.insert(2, 3);
  const ApplyStats st = sg.apply(b2);
  EXPECT_TRUE(sg.graph().has_edge(2, 3));
  EXPECT_EQ(st.applied_inserts, 0u);  // net no-op on a present edge
  EXPECT_EQ(st.applied_deletes, 0u);
  EXPECT_EQ(sg.graph().num_edges(), 1);
}

TEST(StreamingGraph, AutoGrowsVertexSet) {
  StreamingGraph sg(3, false);
  UpdateBatch b;
  b.insert(10, 20);
  sg.apply(b);
  EXPECT_EQ(sg.graph().num_vertices(), 21);
  EXPECT_TRUE(sg.graph().has_edge(10, 20));
}

TEST(StreamingGraph, SelfLoopCountsOnce) {
  StreamingGraph sg(4, false);
  UpdateBatch b;
  b.insert(2, 2);
  const ApplyStats st = sg.apply(b);
  EXPECT_EQ(st.applied_inserts, 1u);
  EXPECT_EQ(sg.graph().num_edges(), 1);
  EXPECT_EQ(sg.graph().degree(2), 1);
  UpdateBatch d;
  d.erase(2, 2);
  const ApplyStats sd = sg.apply(d);
  EXPECT_EQ(sd.applied_deletes, 1u);
  EXPECT_EQ(sg.graph().num_edges(), 0);
}

TEST(StreamingGraph, DirectedArcsAreOneSided) {
  StreamingGraph sg(4, /*directed=*/true);
  UpdateBatch b;
  b.insert(0, 1);
  sg.apply(b);
  EXPECT_TRUE(sg.graph().has_edge(0, 1));
  EXPECT_FALSE(sg.graph().has_edge(1, 0));
  EXPECT_EQ(sg.graph().num_edges(), 1);
}

TEST(StreamingGraph, SerialAndParallelApplyAgree) {
  const CSRGraph base = gen::erdos_renyi(200, 600, false, 3);
  SplitMix64 rng(17);
  UpdateBatch b;
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<vid_t>(rng.next_bounded(200));
    const auto v = static_cast<vid_t>(rng.next_bounded(200));
    if (rng.next_bounded(3) == 0)
      b.erase(u, v);
    else
      b.insert(u, v);
  }
  StreamingGraph sp = StreamingGraph::from_csr(base);
  StreamingGraph ss = StreamingGraph::from_csr(base);
  sp.apply(b);
  ss.apply_serial(b);
  expect_same_csr(sp.pin()->graph(), ss.pin()->graph());
}

TEST(StreamingGraph, SnapshotIsEpochCached) {
  // Lazy mode: the first pin of an epoch builds its snapshot, and every
  // later pin of that epoch returns the same handle.
  StreamingGraph sg(4, false);
  UpdateBatch b;
  b.insert(0, 1);
  sg.apply(b);
  const stream::SnapshotHandle s1 = sg.pin();
  const stream::SnapshotHandle s2 = sg.pin();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1->graph().num_edges(), 1);
  UpdateBatch b2;
  b2.insert(1, 2);
  sg.apply(b2);
  const stream::SnapshotHandle s3 = sg.pin();
  EXPECT_NE(s3, s1);
  EXPECT_EQ(s3->epoch(), 2u);
  EXPECT_EQ(s3->graph().num_edges(), 2);
  EXPECT_EQ(s1->graph().num_edges(), 1);  // the pinned epoch is unchanged
  EXPECT_EQ(sg.epoch(), 2u);
}

// --------------------------------------------------------------- observers

TEST(ComponentsObserver, InsertOnlyBatchesNeverRebuild) {
  StreamingGraph sg(6, false);
  ComponentsObserver comps(sg.graph());
  sg.add_observer(&comps);
  UpdateBatch b;
  b.insert(0, 1);
  b.insert(2, 3);
  sg.apply(b);
  EXPECT_EQ(comps.num_components(), 4);
  EXPECT_TRUE(comps.connected(0, 1));
  EXPECT_FALSE(comps.connected(1, 2));
  EXPECT_EQ(comps.rebuilds(), 0);
}

TEST(ComponentsObserver, AtMostOneRebuildPerBatch) {
  StreamingGraph sg(8, false);
  ComponentsObserver comps(sg.graph());
  sg.add_observer(&comps);
  UpdateBatch chain;
  for (vid_t v = 0; v + 1 < 8; ++v) chain.insert(v, v + 1);
  sg.apply(chain);
  EXPECT_EQ(comps.rebuilds(), 0);

  // A batch with many deletions: one stale flag, one rebuild, no matter how
  // many queries follow.
  UpdateBatch dels;
  dels.erase(1, 2);
  dels.erase(4, 5);
  dels.erase(6, 7);
  sg.apply(dels);
  EXPECT_TRUE(comps.stale());
  for (int q = 0; q < 50; ++q) {
    EXPECT_EQ(comps.num_components(), 4);
    EXPECT_FALSE(comps.connected(0, 2));
    EXPECT_TRUE(comps.connected(2, 4));
  }
  EXPECT_EQ(comps.rebuilds(), 1);

  // Next deleting batch: at most one more.
  UpdateBatch dels2;
  dels2.erase(2, 3);
  sg.apply(dels2);
  for (int q = 0; q < 50; ++q) EXPECT_EQ(comps.num_components(), 5);
  EXPECT_EQ(comps.rebuilds(), 2);

  // Insert-only traffic after a rebuild folds in with no further rebuild.
  UpdateBatch ins;
  ins.insert(1, 2);
  sg.apply(ins);
  EXPECT_FALSE(comps.stale());
  for (int q = 0; q < 50; ++q) EXPECT_EQ(comps.num_components(), 4);
  EXPECT_TRUE(comps.connected(0, 2));
  EXPECT_EQ(comps.rebuilds(), 2);
}

TEST(ComponentsObserver, MixedBatchWithCycleDeletionStaysConnected) {
  StreamingGraph sg(3, false);
  ComponentsObserver comps(sg.graph());
  sg.add_observer(&comps);
  UpdateBatch tri;
  tri.insert(0, 1);
  tri.insert(1, 2);
  tri.insert(2, 0);
  sg.apply(tri);
  UpdateBatch del;
  del.erase(0, 1);
  sg.apply(del);
  EXPECT_TRUE(comps.connected(0, 1));  // via 2
  EXPECT_EQ(comps.num_components(), 1);
}

TEST(ComponentsObserver, GrowsWithTheGraph) {
  StreamingGraph sg(2, false);
  ComponentsObserver comps(sg.graph());
  sg.add_observer(&comps);
  UpdateBatch b;
  b.insert(0, 5);
  sg.apply(b);
  EXPECT_EQ(comps.num_components(), 5);  // {0,5} + 4 singletons
  EXPECT_TRUE(comps.connected(0, 5));
}

TEST(DegreeStatsObserver, TracksDegreesMaxAndHistogram) {
  StreamingGraph sg(5, false);
  DegreeStatsObserver deg(sg.graph());
  sg.add_observer(&deg);
  EXPECT_EQ(deg.max_degree(), 0);
  ASSERT_EQ(deg.histogram().size(), 1u);
  EXPECT_EQ(deg.histogram()[0], 5);

  UpdateBatch star;
  for (vid_t leaf = 1; leaf < 5; ++leaf) star.insert(0, leaf);
  sg.apply(star);
  EXPECT_EQ(deg.max_degree(), 4);
  EXPECT_EQ(deg.degree(0), 4);
  EXPECT_EQ(deg.degree(3), 1);
  ASSERT_EQ(deg.histogram().size(), 5u);
  EXPECT_EQ(deg.histogram()[1], 4);
  EXPECT_EQ(deg.histogram()[4], 1);

  // Deleting shrinks the max and trims the histogram.
  UpdateBatch del;
  del.erase(0, 1);
  del.erase(0, 2);
  sg.apply(del);
  EXPECT_EQ(deg.max_degree(), 2);
  ASSERT_EQ(deg.histogram().size(), 3u);
  EXPECT_EQ(deg.histogram()[0], 2);
  for (vid_t v = 0; v < 5; ++v)
    EXPECT_EQ(deg.degree(v), sg.graph().degree(v)) << "v=" << v;
}

TEST(DegreeStatsObserver, SelfLoopAddsOneLikeDynamicGraph) {
  StreamingGraph sg(3, false);
  DegreeStatsObserver deg(sg.graph());
  sg.add_observer(&deg);
  UpdateBatch b;
  b.insert(1, 1);
  sg.apply(b);
  EXPECT_EQ(deg.degree(1), 1);
  EXPECT_EQ(deg.degree(1), sg.graph().degree(1));
}

TEST(ClusteringObserver, RejectsDirectedGraphs) {
  DynamicGraph dg(4, /*directed=*/true);
  EXPECT_THROW(ClusteringObserver obs(dg), std::invalid_argument);
}

TEST(ClusteringObserver, TriangleBuildAndTeardown) {
  StreamingGraph sg(3, false);
  ClusteringObserver cc(sg.graph());
  sg.add_observer(&cc);
  UpdateBatch tri;
  tri.insert(0, 1);
  tri.insert(1, 2);
  tri.insert(2, 0);
  sg.apply(tri);
  EXPECT_EQ(cc.triangles(), 1);
  EXPECT_EQ(cc.wedges(), 3);
  EXPECT_DOUBLE_EQ(cc.global_clustering(), 1.0);
  EXPECT_DOUBLE_EQ(cc.average_clustering(), 1.0);

  UpdateBatch del;
  del.erase(1, 2);
  sg.apply(del);
  EXPECT_EQ(cc.triangles(), 0);
  EXPECT_EQ(cc.wedges(), 1);  // only vertex 0 keeps degree 2
  EXPECT_DOUBLE_EQ(cc.global_clustering(), 0.0);
}

TEST(ClusteringObserver, SeedsFromExistingGraphAndMatchesMetrics) {
  const CSRGraph k5 = gen::complete_graph(5);
  StreamingGraph sg = StreamingGraph::from_csr(k5);
  ClusteringObserver cc(sg.graph());
  EXPECT_EQ(cc.triangles(), 10);  // C(5,3)
  // One formula set serves both sides, so the values are bitwise equal.
  EXPECT_EQ(cc.global_clustering(), global_clustering_coefficient(k5));
  EXPECT_EQ(cc.average_clustering(), average_clustering_coefficient(k5));
}

TEST(ClusteringObserver, MultiEdgeTriangleChangesInOneBatch) {
  // Insert two edges of a triangle whose third edge also arrives in the same
  // batch, plus tear one down again — the replay must see intra-batch edges.
  StreamingGraph sg(4, false);
  ClusteringObserver cc(sg.graph());
  sg.add_observer(&cc);
  UpdateBatch b;
  b.insert(0, 1);
  b.insert(1, 2);
  b.insert(0, 2);
  b.insert(2, 3);
  sg.apply(b);
  EXPECT_EQ(cc.triangles(), 1);

  // Delete two triangle edges in one batch; also add a new triangle 1-2-3.
  UpdateBatch b2;
  b2.erase(0, 1);
  b2.erase(0, 2);
  b2.insert(1, 3);
  sg.apply(b2);
  EXPECT_EQ(cc.triangles(), 1);  // {1,2,3}
  const stream::SnapshotHandle pinned = sg.pin();
  const CSRGraph& snap_csr = pinned->graph();
  EXPECT_EQ(cc.global_clustering(), global_clustering_coefficient(snap_csr));
  EXPECT_EQ(cc.average_clustering(), average_clustering_coefficient(snap_csr));
}

TEST(ClusteringObserver, SelfLoopsAreIgnored) {
  StreamingGraph sg(3, false);
  ClusteringObserver cc(sg.graph());
  sg.add_observer(&cc);
  UpdateBatch b;
  b.insert(0, 0);
  b.insert(0, 1);
  sg.apply(b);
  EXPECT_EQ(cc.triangles(), 0);
  EXPECT_EQ(cc.wedges(), 0);  // self loop does not create a wedge
}

// Observer state after a batch equals observer state built from scratch on
// the post-batch graph (spot check; the differential suite does this over
// random streams).
TEST(Observers, MatchFromScratchAfterMixedBatch) {
  const CSRGraph base = gen::watts_strogatz(64, 4, 0.2, 9);
  StreamingGraph sg = StreamingGraph::from_csr(base);
  ComponentsObserver comps(sg.graph());
  DegreeStatsObserver deg(sg.graph());
  ClusteringObserver cc(sg.graph());
  sg.add_observer(&comps);
  sg.add_observer(&deg);
  sg.add_observer(&cc);

  SplitMix64 rng(23);
  UpdateBatch b;
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<vid_t>(rng.next_bounded(64));
    const auto v = static_cast<vid_t>(rng.next_bounded(64));
    if (rng.next_bounded(3) == 0)
      b.erase(u, v);
    else
      b.insert(u, v);
  }
  sg.apply(b);

  ComponentsObserver comps_ref(sg.graph());
  DegreeStatsObserver deg_ref(sg.graph());
  ClusteringObserver cc_ref(sg.graph());
  EXPECT_EQ(comps.num_components(), comps_ref.num_components());
  EXPECT_EQ(deg.max_degree(), deg_ref.max_degree());
  ASSERT_EQ(deg.histogram().size(), deg_ref.histogram().size());
  EXPECT_EQ(deg.histogram(), deg_ref.histogram());
  EXPECT_EQ(cc.triangles(), cc_ref.triangles());
  EXPECT_EQ(cc.wedges(), cc_ref.wedges());
  for (vid_t v = 0; v < sg.graph().num_vertices(); ++v) {
    EXPECT_EQ(deg.degree(v), deg_ref.degree(v)) << "v=" << v;
    EXPECT_EQ(cc.triangles_at(v), cc_ref.triangles_at(v)) << "v=" << v;
  }
}

}  // namespace
}  // namespace snap
