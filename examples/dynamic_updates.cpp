// Streaming updates on the dynamic graph representation (§3, "Data
// Representation"): every vertex's adjacency is one sorted neighbour
// vector, a hub's thousands of entries included, and the structure absorbs
// interleaved insertions/deletions while answering connectivity queries.
//
//   ./dynamic_updates
#include <algorithm>
#include <cstdio>
#include <utility>

#include "snap/graph/dynamic_graph.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/gen/generators.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/stream/observers.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/rng.hpp"
#include "snap/util/timer.hpp"

int main() {
  using namespace snap;

  const vid_t n = 50000;
  const vid_t hubs = 16;
  DynamicGraph dyn(n, /*directed=*/false);
  SplitMix64 rng(2026);

  // Phase 1: stream in a skewed edge workload — a few celebrity vertices
  // attract a quarter of the edges, the skew of a small-world degree
  // distribution.
  WallTimer t;
  eid_t inserted = 0;
  for (int i = 0; i < 400000; ++i) {
    const bool hub_edge = rng.next_bounded(4) == 0;  // 25% hit a hub
    const auto u = static_cast<vid_t>(
        hub_edge ? rng.next_bounded(hubs) : rng.next_bounded(n));
    const auto v = static_cast<vid_t>(rng.next_bounded(n));
    if (u != v && dyn.insert_edge(u, v)) ++inserted;
  }
  std::printf("inserted %lld edges in %.2fs\n",
              static_cast<long long>(inserted), t.elapsed_s());

  eid_t hub_arcs = 0;
  eid_t hub_max = 0;
  for (vid_t v = 0; v < hubs; ++v) {
    hub_arcs += dyn.degree(v);
    hub_max = std::max(hub_max, dyn.degree(v));
  }
  std::printf("%lld hub rows hold %lld neighbours (largest %lld); the "
              "other rows average %.1f\n\n",
              static_cast<long long>(hubs), static_cast<long long>(hub_arcs),
              static_cast<long long>(hub_max),
              static_cast<double>(2 * dyn.num_edges() - hub_arcs) /
                  static_cast<double>(n - hubs));

  // Phase 2: churn — delete a third of what we look up, reinsert others.
  t.reset();
  eid_t deleted = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto u = static_cast<vid_t>(rng.next_bounded(hubs));  // hub-heavy
    const auto v = static_cast<vid_t>(rng.next_bounded(n));
    if (dyn.has_edge(u, v) && rng.next_bounded(3) == 0) {
      dyn.delete_edge(u, v);
      ++deleted;
    }
  }
  std::printf("churn phase: %lld deletions in %.2fs (each a binary search "
              "and one shift of a sorted row)\n\n",
              static_cast<long long>(deleted), t.elapsed_s());

  // Phase 3: snapshot to CSR for the static analysis kernels.
  t.reset();
  const CSRGraph snapshot = dyn.to_csr();
  const Components comps = connected_components(snapshot);
  std::printf("snapshot to CSR: n=%lld m=%lld, %lld components "
              "(giant %lld) in %.2fs\n",
              static_cast<long long>(snapshot.num_vertices()),
              static_cast<long long>(snapshot.num_edges()),
              static_cast<long long>(comps.count),
              static_cast<long long>(
                  comps.sizes()[static_cast<std::size_t>(comps.giant())]),
              t.elapsed_s());
  std::printf(
      "\nPattern: ingest and churn on the dynamic graph, then\n"
      "snapshot to CSR whenever a batch of static analysis is due.\n\n");

  // Phase 4: the batched engine — wrap the dynamic graph in a
  // StreamingGraph, attach incremental analytics, and apply updates in
  // parallel batches instead of one edge at a time.
  stream::StreamingGraph sg(std::move(dyn));
  stream::ComponentsObserver comps_obs(sg.graph());
  stream::DegreeStatsObserver deg_obs(sg.graph());
  sg.add_observer(&comps_obs);
  sg.add_observer(&deg_obs);

  t.reset();
  eid_t batched_inserts = 0;
  for (int b = 0; b < 10; ++b) {
    stream::UpdateBatch batch;
    for (int i = 0; i < 20000; ++i) {
      const auto u = static_cast<vid_t>(rng.next_bounded(n));
      const auto v = static_cast<vid_t>(rng.next_bounded(n));
      if (rng.next_bounded(5) == 0)
        batch.erase(u, v, static_cast<std::uint64_t>(i));
      else
        batch.insert(u, v, static_cast<std::uint64_t>(i));
    }
    batched_inserts +=
        static_cast<eid_t>(sg.apply(std::move(batch)).applied_inserts);
  }
  std::printf(
      "streaming engine: 10 batches x 20k updates in %.2fs "
      "(%lld effective inserts)\n",
      t.elapsed_s(), static_cast<long long>(batched_inserts));
  std::printf(
      "maintained analytics: %lld components, max degree %lld — no\n"
      "from-scratch recomputation, observers updated per batch.\n\n",
      static_cast<long long>(comps_obs.num_components()),
      static_cast<long long>(deg_obs.max_degree()));

  // Phase 5: concurrent readers via pinned epoch snapshots.  pin() hands
  // out a refcounted, immutable CSR image of the current epoch; in eager
  // mode every apply() publishes the next image, so any number of reader
  // threads can analyze pinned epochs while the writer keeps streaming —
  // snapshot isolation with RCU-style reclamation (a superseded epoch is
  // freed when its last pin drops).  This is exactly the concurrency model
  // the analytics daemon serves over HTTP: `snap-cli serve` wraps a
  // StreamingGraph like this one behind POST /ingest and per-snapshot
  // query endpoints — see docs/SERVICE.md.
  sg.set_eager_snapshots(true);
  const stream::SnapshotHandle before = sg.pin();
  stream::UpdateBatch batch;
  for (int i = 0; i < 1000; ++i)
    batch.insert(static_cast<vid_t>(rng.next_bounded(n)),
                 static_cast<vid_t>(rng.next_bounded(n)));
  sg.apply(std::move(batch));
  const stream::SnapshotHandle after = sg.pin();
  std::printf(
      "pinned snapshots: epoch %llu holds m=%lld while epoch %llu sees "
      "m=%lld\n(readers keep consistent images; the writer never waits)\n",
      static_cast<unsigned long long>(before->epoch()),
      static_cast<long long>(before->graph().num_edges()),
      static_cast<unsigned long long>(after->epoch()),
      static_cast<long long>(after->graph().num_edges()));
  return 0;
}
