#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "snap/graph/adjacency.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/util/bitmap.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

/// Reusable scratch for frontier-based traversals: the per-level degree /
/// prefix-sum arrays of the arc-balanced split and the per-thread output
/// buffers.  Holding one pool across levels (and across whole traversals —
/// every buffer keeps its capacity) removes the per-level allocations the
/// original bfs rebuilt on every iteration.
class FrontierPool {
 public:
  void prepare(int num_threads) {
    if (static_cast<int>(local_.size()) < num_threads)
      local_.resize(static_cast<std::size_t>(num_threads));
    // Clear every buffer (not just the first num_threads): collect_into
    // concatenates them all, and a previous call may have used more threads.
    for (auto& buf : local_) buf.clear();
  }

  std::vector<eid_t>& degrees() { return degs_; }
  std::vector<eid_t>& offsets() { return off_; }
  std::vector<vid_t>& local(int t) {
    return local_[static_cast<std::size_t>(t)];
  }

  /// Concatenate the per-thread buffers into `out` (thread order, so the
  /// result is deterministic given a fixed arc split).
  void collect_into(std::vector<vid_t>& out) {
    std::size_t total = 0;
    for (const auto& buf : local_) total += buf.size();
    out.clear();
    out.reserve(total);
    for (const auto& buf : local_) out.insert(out.end(), buf.begin(), buf.end());
  }

 private:
  std::vector<eid_t> degs_, off_;
  std::vector<std::vector<vid_t>> local_;
};

/// Below this many frontier arcs a level is expanded serially: the OpenMP
/// region + prefix sum cost more than the scan itself.
inline constexpr eid_t kSerialExpandArcs = 2048;

namespace frontier_detail {

/// The team half of expand_arc_balanced: prefix-sum the frontier's degrees
/// and give each of `threads` an equal arc range.  Returns false, having
/// expanded nothing, when the level has fewer than kSerialExpandArcs arcs.
template <AdjacencyView G, typename Visit>
bool expand_split(const G& g, const std::vector<vid_t>& frontier,
                  std::vector<vid_t>& next, FrontierPool& pool, int threads,
                  Visit visit) {
  const auto fsz = static_cast<std::int64_t>(frontier.size());
  auto& degs = pool.degrees();
  degs.resize(static_cast<std::size_t>(fsz));
  for (std::int64_t i = 0; i < fsz; ++i)
    degs[static_cast<std::size_t>(i)] = g.degree(frontier[static_cast<std::size_t>(i)]);
  auto& off = pool.offsets();
  parallel::exclusive_prefix_sum(degs, off);
  const eid_t total_arcs = off[static_cast<std::size_t>(fsz)];
  if (total_arcs < kSerialExpandArcs) return false;

  pool.prepare(threads);
  parallel::run_team(threads, [&](int t) {
    auto& out = pool.local(t);
    out.clear();
    const eid_t arc_lo = total_arcs * t / threads;
    const eid_t arc_hi = total_arcs * (t + 1) / threads;
    if (arc_lo >= arc_hi) return;
    // First frontier vertex whose arc range intersects [arc_lo, arc_hi).
    std::int64_t i = static_cast<std::int64_t>(
        std::upper_bound(off.begin(), off.begin() + fsz + 1, arc_lo) -
        off.begin() - 1);
    for (; i < fsz && off[static_cast<std::size_t>(i)] < arc_hi; ++i) {
      const vid_t u = frontier[static_cast<std::size_t>(i)];
      const eid_t base = off[static_cast<std::size_t>(i)];
      const eid_t lo = std::max<eid_t>(arc_lo - base, 0);
      const eid_t hi = std::min<eid_t>(arc_hi - base,
                                       degs[static_cast<std::size_t>(i)]);
      // Slots [lo, hi) of u's row: indexed where rows are contiguous,
      // otherwise decoded from the row start.
      if constexpr (ContiguousRows<G>) {
        const auto nb = g.neighbors(u);
        for (eid_t j = lo; j < hi; ++j) {
          const vid_t v = nb[static_cast<std::size_t>(j)];
          if (visit(u, v)) out.push_back(v);
        }
      } else {
        eid_t j = 0;
        g.for_each_neighbor_while(u, [&](vid_t v) {
          if (j >= lo && visit(u, v)) out.push_back(v);
          return ++j < hi;
        });
      }
    }
  });
  pool.collect_into(next);
  return true;
}

}  // namespace frontier_detail

/// Arc-balanced parallel expansion of a sparse frontier (§3's balancing fix
/// for skewed degrees) on a team of `threads`: the frontier's degrees are
/// prefix-summed and each thread takes an equal *arc* range, so one hub
/// cannot serialize a level.  `visit(u, v)` is called exactly once per
/// frontier arc and must return true iff it newly claimed v; claimed
/// vertices land in `next` (cleared first).  At one thread, or below
/// kSerialExpandArcs, the frontier is expanded by the plain loop here.  All
/// intermediates come from `pool`, so steady-state expansion allocates
/// nothing.  The visitor is taken by value: the team path gets its own copy,
/// so the plain loop's copy never escapes and stays in registers.
template <AdjacencyView G, typename Visit>
void expand_arc_balanced(const G& g, const std::vector<vid_t>& frontier,
                         std::vector<vid_t>& next, FrontierPool& pool,
                         int threads, Visit visit) {
  next.clear();
  if (threads > 1 && !frontier.empty() &&
      frontier_detail::expand_split(g, frontier, next, pool, threads, visit))
    return;
  for (const vid_t u : frontier)
    g.for_each_neighbor_while(u, [&](vid_t v) {
      if (visit(u, v)) next.push_back(v);
      return true;
    });
}

/// A BFS frontier that is either sparse (vertex list, expanded by push) or
/// dense (bitmap over all vertices, expanded by bottom-up pull).  The
/// traversal engine converts between the two as the Beamer alpha/beta
/// heuristic dictates; both representations keep their storage across
/// levels and runs.
class Frontier {
 public:
  /// Bind to a graph of n vertices and reset to empty sparse.
  void init(vid_t n) {
    n_ = n;
    list_.clear();
    dense_ = false;
    size_ = 0;
    arcs_ = 0;
  }

  void reset_to(vid_t v, eid_t degree) {
    list_.clear();
    list_.push_back(v);
    dense_ = false;
    size_ = 1;
    arcs_ = degree;
  }

  [[nodiscard]] bool dense() const { return dense_; }
  [[nodiscard]] vid_t size() const { return size_; }
  [[nodiscard]] eid_t arcs() const { return arcs_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  std::vector<vid_t>& list() { return list_; }
  [[nodiscard]] const std::vector<vid_t>& list() const { return list_; }
  AtomicBitmap& bits() { return bits_; }
  [[nodiscard]] const AtomicBitmap& bits() const { return bits_; }

  /// Record the outcome of a dense (pull) level, whose bitmap was filled by
  /// the engine directly.
  void assume_dense(vid_t size, eid_t arcs) {
    dense_ = true;
    size_ = size;
    arcs_ = arcs;
  }

  template <AdjacencyView G>
  void assume_sparse(const G& g) {
    dense_ = false;
    size_ = static_cast<vid_t>(list_.size());
    eid_t a = 0;
    for (vid_t v : list_) a += g.degree(v);
    arcs_ = a;
  }

  /// Sparse -> dense: scatter the vertex list into the bitmap.
  void to_dense(int threads) {
    bits_.resize(static_cast<std::size_t>(n_));
    const auto fsz = static_cast<std::int64_t>(list_.size());
    parallel::run_team(threads, [&](int t) {
      for (std::int64_t i = fsz * t / threads; i < fsz * (t + 1) / threads;
           ++i)
        bits_.set(static_cast<std::size_t>(list_[static_cast<std::size_t>(i)]));
    });
    dense_ = true;
  }

  /// Dense -> sparse: gather the vertices whose `dist` equals `level` (the
  /// depth this frontier was discovered at) back into the list.
  template <AdjacencyView G>
  void to_sparse(const G& g, const std::vector<std::int64_t>& dist,
                 std::int64_t level, FrontierPool& pool, int threads) {
    pool.prepare(threads);
    parallel::run_team(threads, [&](int t) {
      auto& out = pool.local(t);
      out.clear();
      // Contiguous block per thread, so collect_into yields vertex order.
      const vid_t lo = n_ * t / threads;
      const vid_t hi = n_ * (t + 1) / threads;
      for (vid_t v = lo; v < hi; ++v)
        if (dist[static_cast<std::size_t>(v)] == level) out.push_back(v);
    });
    pool.collect_into(list_);
    assume_sparse(g);
  }

  void swap(Frontier& other) noexcept {
    std::swap(n_, other.n_);
    std::swap(dense_, other.dense_);
    std::swap(size_, other.size_);
    std::swap(arcs_, other.arcs_);
    list_.swap(other.list_);
    bits_.swap(other.bits_);
  }

 private:
  vid_t n_ = 0;
  bool dense_ = false;
  vid_t size_ = 0;
  eid_t arcs_ = 0;
  std::vector<vid_t> list_;
  AtomicBitmap bits_;
};

/// The direction-optimizing BFS engine — the one level loop behind every
/// BFS entry point, on every layout (any AdjacencyView; instantiated for
/// CSRGraph and CompressedCSR) and at every team width.  Each level makes
/// the Beamer alpha/beta direction decision, then expands either by
/// arc-balanced push or by bitmap pull, and appends its BfsLevelStats to
/// the optional trace.
///
/// The caller picks the team width.  Above one thread a level is split
/// across the team (arc-balanced push claiming vertices through an atomic
/// bitmap, chunked pull); at one thread every level runs as plain loops
/// and the distance array is the claim, which is what sweep clients that
/// already parallelize across sources want (closeness, sampled path
/// length: one engine per thread, run_into at width 1).  One engine owns
/// all traversal scratch (frontier pair, visited bitmap, buffer pool) and
/// run_into reuses the caller's result buffers, so a sweep allocates
/// nothing per source.  An engine instance is not thread-safe; share
/// nothing between threads.
class BfsEngine {
 public:
  /// Search from `source` on a team of `threads` into `r`, whose buffers
  /// are reused.  n = 0 yields the empty result; otherwise `source` must
  /// lie in [0, n).
  template <AdjacencyView G>
  void run_into(const G& g, vid_t source, int threads,
                const HybridBFSOptions& opts, BFSResult& r,
                std::vector<BfsLevelStats>* trace = nullptr);

  /// run_into on a team of parallel::num_threads(), into a fresh result.
  template <AdjacencyView G>
  BFSResult run(const G& g, vid_t source, const HybridBFSOptions& opts = {},
                std::vector<BfsLevelStats>* trace = nullptr) {
    BFSResult r;
    run_into(g, source, parallel::num_threads(), opts, r, trace);
    return r;
  }

 private:
  template <bool kTeam, AdjacencyView G>
  void levels(const G& g, vid_t source, int threads,
              const HybridBFSOptions& opts, BFSResult& r,
              std::vector<BfsLevelStats>* trace);

  Frontier cur_, next_;
  AtomicBitmap visited_;
  FrontierPool pool_;
};

}  // namespace snap
