#include "snap/kernels/frontier.hpp"

#include <atomic>
#include <limits>

#include "snap/graph/compressed_csr.hpp"

namespace snap {

template <AdjacencyView G>
void BfsEngine::run_into(const G& g, vid_t source, int threads,
                         const HybridBFSOptions& opts, BFSResult& r,
                         std::vector<BfsLevelStats>* trace) {
  if (trace) trace->clear();
  if (!bfs_detail::start(r, g.num_vertices(), source)) return;
  if (threads > 1)
    levels<true>(g, source, threads, opts, r, trace);
  else
    levels<false>(g, source, 1, opts, r, trace);
}

template <bool kTeam, AdjacencyView G>
void BfsEngine::levels(const G& g, vid_t source, int threads,
                       const HybridBFSOptions& opts, BFSResult& r,
                       std::vector<BfsLevelStats>* trace) {
  const vid_t n = g.num_vertices();
  auto& dist = r.dist;
  auto& parent = r.parent;
  // Pull reads a vertex's own adjacency as its *in*-edges, which is only
  // valid when the graph is symmetric.
  const bool allow_pull = opts.enable_pull && !g.directed();
  const std::int64_t max_depth = opts.max_depth < 0
                                     ? std::numeric_limits<std::int64_t>::max()
                                     : opts.max_depth;

  // A team claims vertices through the atomic visited bitmap; a single
  // thread claims through the distance array and never touches it.
  if constexpr (kTeam) {
    visited_.resize(static_cast<std::size_t>(n));
    visited_.set(static_cast<std::size_t>(source));
  }
  cur_.init(n);
  next_.init(n);
  cur_.reset_to(source, g.degree(source));
  eid_t unexplored = g.num_arcs() - cur_.arcs();
  vid_t prev_size = cur_.size();
  std::int64_t level = 0;

  while (!cur_.empty() && level < max_depth) {
    ++level;
    // Per-level direction decision (Beamer alpha/beta): flip to pull when
    // the frontier's arcs dominate what is left to explore, back to push
    // once the frontier is both shrinking and small.
    if (!cur_.dense() && allow_pull && cur_.arcs() > opts.min_pull_arcs &&
        static_cast<double>(cur_.arcs()) * opts.alpha >
            static_cast<double>(unexplored)) {
      cur_.to_dense(threads);
    } else if (cur_.dense() && cur_.size() < prev_size &&
               static_cast<double>(cur_.size()) * opts.beta <
                   static_cast<double>(n)) {
      cur_.to_sparse(g, dist, level - 1, pool_, threads);
    }
    const vid_t fsize = cur_.size();
    const eid_t farcs = cur_.arcs();
    const bool pull = cur_.dense();

    if (pull) {
      // Bottom-up: every unvisited vertex scans its own row for a parent in
      // the frontier and stops at the first hit.  Only the caller owning
      // [lo, hi) writes its dist/parent slots and — ranges start on 64-bit
      // word boundaries — its bitmap words, so no write needs a locked RMW.
      const AtomicBitmap& front = cur_.bits();
      AtomicBitmap& nbits = next_.bits();
      nbits.resize(static_cast<std::size_t>(n));
      struct Woken {
        vid_t vertices = 0;
        eid_t arcs = 0;
      };
      auto pull_range = [&](vid_t lo, vid_t hi) {
        Woken w;
        for (vid_t v = lo; v < hi; ++v) {
          if (dist[static_cast<std::size_t>(v)] >= 0) continue;
          g.for_each_neighbor_while(v, [&](vid_t u) {
            if (!front.test(static_cast<std::size_t>(u))) return true;
            dist[static_cast<std::size_t>(v)] = level;
            parent[static_cast<std::size_t>(v)] = u;
            if constexpr (kTeam)
              visited_.set_owned(static_cast<std::size_t>(v));
            nbits.set_owned(static_cast<std::size_t>(v));
            ++w.vertices;
            w.arcs += g.degree(v);
            return false;
          });
        }
        return w;
      };
      Woken woken;
      if constexpr (kTeam) {
        // Vertices are dealt to the team in word-aligned chunks.
        constexpr vid_t kPullChunk = 1024;
        static_assert(kPullChunk % 64 == 0);
        std::atomic<vid_t> cursor{0};
        std::atomic<vid_t> awake{0};
        std::atomic<eid_t> arcs{0};
        parallel::run_team(threads, [&](int) {
          Woken mine;
          for (vid_t lo; (lo = cursor.fetch_add(
                              kPullChunk, std::memory_order_relaxed)) < n;) {
            const Woken w = pull_range(lo, std::min(n, lo + kPullChunk));
            mine.vertices += w.vertices;
            mine.arcs += w.arcs;
          }
          awake.fetch_add(mine.vertices, std::memory_order_relaxed);
          arcs.fetch_add(mine.arcs, std::memory_order_relaxed);
        });
        woken = {awake.load(std::memory_order_relaxed),
                 arcs.load(std::memory_order_relaxed)};
      } else {
        woken = pull_range(0, n);
      }
      next_.assume_dense(woken.vertices, woken.arcs);
    } else {
      // Top-down.  The claim captures plain pointers and the level by value
      // so the per-arc test stays in registers.
      std::int64_t* const d = dist.data();
      vid_t* const p = parent.data();
      AtomicBitmap& visited = visited_;
      expand_arc_balanced(g, cur_.list(), next_.list(), pool_, threads,
                          [d, p, &visited, lvl = level](vid_t u, vid_t v) {
                            const bool claimed =
                                kTeam ? visited.test_and_set(
                                            static_cast<std::size_t>(v))
                                      : d[v] < 0;
                            if (claimed) {
                              d[v] = lvl;
                              p[v] = u;
                            }
                            return claimed;
                          });
      next_.assume_sparse(g);
    }

    const vid_t discovered = next_.size();
    if (trace) trace->push_back({level, pull, fsize, farcs, discovered});
    r.num_visited += discovered;
    if (discovered > 0) r.num_levels = level;
    unexplored -= next_.arcs();
    prev_size = fsize;
    cur_.swap(next_);
  }
}

template void BfsEngine::run_into(const CSRGraph&, vid_t, int,
                                  const HybridBFSOptions&, BFSResult&,
                                  std::vector<BfsLevelStats>*);
template void BfsEngine::run_into(const CompressedCSR&, vid_t, int,
                                  const HybridBFSOptions&, BFSResult&,
                                  std::vector<BfsLevelStats>*);

}  // namespace snap
