#include "snap/metrics/path_length.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "snap/kernels/bfs.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {

namespace {

PathLengthStats from_sources(const CSRGraph& g,
                             const std::vector<vid_t>& sources) {
  std::atomic<std::int64_t> total_dist{0};
  std::atomic<std::int64_t> total_pairs{0};
  std::atomic<std::int64_t> max_ecc{0};
  const auto num_sources = static_cast<vid_t>(sources.size());
  // One direction-optimizing engine per thread, each run at team width 1:
  // all traversal scratch is allocated once per thread and reused across
  // the source sweep.
  std::atomic<vid_t> cursor{0};
  parallel::run_team(parallel::num_threads(), [&](int) {
    BfsEngine engine;
    BFSResult b;
    for (vid_t i;
         (i = cursor.fetch_add(1, std::memory_order_relaxed)) < num_sources;) {
      engine.run_into(g, sources[static_cast<std::size_t>(i)], 1, {}, b);
      std::int64_t sum = 0, cnt = 0;
      for (std::int64_t d : b.dist) {
        if (d > 0) {
          sum += d;
          ++cnt;
        }
      }
      total_dist.fetch_add(sum, std::memory_order_relaxed);
      total_pairs.fetch_add(cnt, std::memory_order_relaxed);
      parallel::atomic_fetch_max(max_ecc, b.num_levels);
    }
  });
  PathLengthStats s;
  s.pairs_sampled = total_pairs.load();
  s.average = s.pairs_sampled > 0 ? static_cast<double>(total_dist.load()) /
                                        static_cast<double>(s.pairs_sampled)
                                  : 0.0;
  s.max_eccentricity = max_ecc.load();
  return s;
}

}  // namespace

PathLengthStats sampled_path_length(const CSRGraph& g, vid_t num_sources,
                                    std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  if (n == 0) return {};
  if (num_sources >= n) return exact_path_length(g);
  SplitMix64 rng(seed);
  std::vector<vid_t> sources(static_cast<std::size_t>(num_sources));
  for (auto& s : sources)
    s = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
  return from_sources(g, sources);
}

PathLengthStats exact_path_length(const CSRGraph& g) {
  std::vector<vid_t> sources(static_cast<std::size_t>(g.num_vertices()));
  std::iota(sources.begin(), sources.end(), vid_t{0});
  return from_sources(g, sources);
}

std::int64_t double_sweep_diameter(const CSRGraph& g, int sweeps,
                                   std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  if (n == 0) return 0;
  SplitMix64 rng(seed);
  std::int64_t best = 0;
  BfsEngine engine;  // top-level sweeps: parallel hybrid BFS, pooled scratch
  for (int i = 0; i < sweeps; ++i) {
    const auto start = static_cast<vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(n)));
    const BFSResult first = engine.run(g, start);
    // Farthest reached vertex becomes the second sweep's source.
    vid_t far = start;
    for (vid_t v = 0; v < n; ++v) {
      if (first.dist[static_cast<std::size_t>(v)] >
          first.dist[static_cast<std::size_t>(far)])
        far = v;
    }
    const BFSResult second = engine.run(g, far);
    best = std::max(best, second.num_levels);
  }
  return best;
}

}  // namespace snap
