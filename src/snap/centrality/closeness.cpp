#include "snap/centrality/closeness.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "snap/kernels/bfs.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/kernels/sssp.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {

namespace {

/// Weighted distance sum from source s (reachable vertices only).
double dijkstra_sum_from(const CSRGraph& g, vid_t s) {
  double sum = 0;
  const SSSPResult r = dijkstra(g, s);
  for (weight_t d : r.dist)
    if (d > 0 && d < std::numeric_limits<weight_t>::infinity()) sum += d;
  return sum;
}

double bfs_dist_sum(const BFSResult& b) {
  double sum = 0;
  for (std::int64_t d : b.dist)
    if (d > 0) sum += static_cast<double>(d);
  return sum;
}

}  // namespace

std::vector<double> closeness_centrality(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  std::vector<double> cc(static_cast<std::size_t>(n), 0.0);
  // Coarse-grained parallelism: one full traversal per source, sources
  // dealt dynamically to threads (per-source work varies with component
  // size, so static scheduling would imbalance on fragmented graphs).
  if (!g.weighted()) {
    // Each thread owns one BfsEngine, so frontier buffers, bitmaps and the
    // result vectors are allocated once per thread, not once per source, and
    // each sweep runs the direction-optimizing traversal at team width 1.
    std::atomic<vid_t> cursor{0};
    parallel::run_team(parallel::num_threads(), [&](int) {
      BfsEngine engine;
      BFSResult b;
      for (vid_t v; (v = cursor.fetch_add(1, std::memory_order_relaxed)) < n;) {
        engine.run_into(g, v, 1, {}, b);
        const double sum = bfs_dist_sum(b);
        cc[static_cast<std::size_t>(v)] = sum > 0 ? 1.0 / sum : 0.0;
      }
    });
    return cc;
  }
  parallel::parallel_for_dynamic(
      n,
      [&](vid_t v) {
        const double sum = dijkstra_sum_from(g, v);
        cc[static_cast<std::size_t>(v)] = sum > 0 ? 1.0 / sum : 0.0;
      },
      /*chunk=*/1);
  return cc;
}

std::vector<double> closeness_centrality_sampled(const CSRGraph& g,
                                                 vid_t num_samples,
                                                 std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  num_samples = std::min(num_samples, n);
  std::vector<std::atomic<double>> sum(static_cast<std::size_t>(n));
  parallel::parallel_for(n, [&](vid_t v) {
    sum[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  });

  SplitMix64 rng(seed);
  std::vector<vid_t> sources(static_cast<std::size_t>(num_samples));
  for (auto& s : sources)
    s = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));

  std::atomic<vid_t> cursor{0};
  parallel::run_team(parallel::num_threads(), [&](int) {
    BfsEngine engine;
    BFSResult b;
    for (vid_t i;
         (i = cursor.fetch_add(1, std::memory_order_relaxed)) < num_samples;) {
      engine.run_into(g, sources[static_cast<std::size_t>(i)], 1, {}, b);
      for (vid_t v = 0; v < n; ++v) {
        const std::int64_t d = b.dist[static_cast<std::size_t>(v)];
        // reduction: per-vertex distance sum over sampled sources; addition
        // order varies with scheduling, so sums are not bitwise reproducible.
        if (d > 0)
          parallel::atomic_add(sum[static_cast<std::size_t>(v)],
                               static_cast<double>(d));
      }
    }
  });

  // Scale the sampled distance sum up to the full vertex set.
  const double scale =
      static_cast<double>(n) / static_cast<double>(std::max<vid_t>(num_samples, 1));
  std::vector<double> cc(static_cast<std::size_t>(n), 0.0);
  for (vid_t v = 0; v < n; ++v) {
    const double s =
        sum[static_cast<std::size_t>(v)].load(std::memory_order_relaxed) * scale;
    cc[static_cast<std::size_t>(v)] = s > 0 ? 1.0 / s : 0.0;
  }
  return cc;
}

}  // namespace snap
