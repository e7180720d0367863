#pragma once

// The single Brandes shortest-path engine behind every betweenness-family
// kernel in SNAP: exact vertex/edge betweenness (coarse- and fine-grained),
// masked edge betweenness (the GN / pBD divisive inner loop), the weighted
// (Dijkstra-forward) variant, stress centrality, and the adaptive-sampling
// estimators.  Before this header existed the forward/backward traversal was
// copy-pasted in betweenness.cpp, pbd.cpp, stress.cpp and
// approx_betweenness.cpp; this is now the only file in the library that
// contains the dependency-accumulation loop.
//
// Structure
//   Policy   — what the backward recurrence accumulates.  Betweenness uses
//              δ(w) = Σ_succ σ(w)/σ(v)·(1+δ(v)) with per-vertex score δ(w);
//              stress uses p(w) = Σ_succ (1+p(v)) with score σ(w)·p(w).
//   Sink     — visitor receiving per-vertex and/or per-edge contributions.
//              Which callbacks exist is a compile-time property
//              (kWantVertex / kWantEdge), so unused accumulation compiles
//              out of the hot loop.
//   kMasked  — compile-time switch for the alive-edge mask the divisive
//              algorithms maintain (no per-arc branch when unmasked).
//   Scratch  — per-thread pooled traversal state with touched-only reset:
//              a traversal that visits n_c vertices costs O(n_c) to clean
//              up, not O(n), which is what makes component-restricted
//              rescoring in GN / pBD O(n_c(m_c+n_c)) per round.
//
// Determinism rules (see docs/ALGORITHMS.md "Brandes engine")
//   * A single source traversal is serial and bitwise deterministic.
//   * kStaticBlocked source scheduling + reduce_partials gives run-to-run
//     bitwise-identical sums at a fixed thread count: thread t owns the
//     contiguous source block [n·t/nt, n·(t+1)/nt) and partials are folded
//     in ascending thread order for every element.  GN / pBD scoring uses
//     this mode, which is what makes component-restricted and
//     full-recompute runs produce identical dendrograms.
//   * kDynamicChunked trades that reproducibility for load balance (chunked
//     cursor handout); plain betweenness_centrality uses it.
//   * Float scores are NOT invariant across *different* thread counts (the
//     block boundaries move); integer-valued scores (trees, path counts)
//     are, because integer double sums are exact in any order.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "snap/graph/csr_graph.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/util/parallel.hpp"

namespace snap::brandes {

// ---------------------------------------------------------------- policies

/// Betweenness dependency: fractional path counts through the successor.
struct BetweennessPolicy {
  static double arc_contribution(double sigma_w, double sigma_v,
                                 double delta_v) {
    return sigma_w / sigma_v * (1.0 + delta_v);
  }
  static double vertex_score(double /*sigma_w*/, double delta_w) {
    return delta_w;
  }
};

/// Stress dependency: *counts* of shortest paths through w, not fractions
/// [Brandes 2008 variants].
struct StressPolicy {
  static double arc_contribution(double /*sigma_w*/, double /*sigma_v*/,
                                 double delta_v) {
    return 1.0 + delta_v;
  }
  static double vertex_score(double sigma_w, double delta_w) {
    return sigma_w * delta_w;
  }
};

// ------------------------------------------------------------------- sinks

/// Accumulate into caller-owned dense arrays.  Template flags select which
/// accumulation paths are compiled into the traversal.
template <bool WantVertex, bool WantEdge>
struct ArraySink {
  static constexpr bool kWantVertex = WantVertex;
  static constexpr bool kWantEdge = WantEdge;
  double* vertex = nullptr;
  double* edge = nullptr;
  void add_vertex(vid_t w, double c) {
    vertex[static_cast<std::size_t>(w)] += c;
  }
  void add_edge(eid_t id, double c) { edge[static_cast<std::size_t>(id)] += c; }
};

/// Track the dependency of a single edge (the adaptive-sampling estimator).
struct SingleEdgeSink {
  static constexpr bool kWantVertex = false;
  static constexpr bool kWantEdge = true;
  eid_t target = kInvalidEid;
  double sum = 0;
  void add_vertex(vid_t, double) {}
  void add_edge(eid_t id, double c) {
    if (id == target) sum += c;
  }
};

// ----------------------------------------------------------------- scratch

/// Per-thread traversal state, pooled across sources (and across rounds in
/// the divisive algorithms).  All arrays are O(n) and allocated once; after
/// a traversal only the entries it touched are reset (`order` records the
/// visit/settle sequence, which is exactly the touched set — every vertex
/// whose dist/sigma/delta/settled slot was written ends up in `order`).
class SourceScratch {
 public:
  void ensure_unweighted(vid_t n) {
    if (static_cast<vid_t>(dist_.size()) < n) {
      dist_.resize(static_cast<std::size_t>(n), -1);
      grow_common(n);
    }
  }

  void ensure_weighted(vid_t n) {
    if (static_cast<vid_t>(wdist_.size()) < n) {
      wdist_.resize(static_cast<std::size_t>(n),
                    std::numeric_limits<weight_t>::infinity());
      settled_.resize(static_cast<std::size_t>(n), 0);
      grow_common(n);
    }
  }

  /// Reset only the entries the previous traversal touched.
  void reset_touched() {
    const bool unweighted = !dist_.empty();
    const bool weighted = !wdist_.empty();
    for (vid_t v : order_) {
      const auto i = static_cast<std::size_t>(v);
      if (unweighted) dist_[i] = -1;
      if (weighted) {
        wdist_[i] = std::numeric_limits<weight_t>::infinity();
        settled_[i] = 0;
      }
      sigma_[i] = 0;
      delta_[i] = 0;
    }
    order_.clear();
  }

  std::vector<std::int64_t>& dist() { return dist_; }
  std::vector<weight_t>& wdist() { return wdist_; }
  std::vector<std::uint8_t>& settled() { return settled_; }
  std::vector<double>& sigma() { return sigma_; }
  std::vector<double>& delta() { return delta_; }
  [[nodiscard]] const std::vector<double>& delta() const { return delta_; }
  std::vector<vid_t>& order() { return order_; }
  [[nodiscard]] const std::vector<vid_t>& order() const { return order_; }

 private:
  void grow_common(vid_t n) {
    sigma_.resize(static_cast<std::size_t>(n), 0);
    delta_.resize(static_cast<std::size_t>(n), 0);
    order_.reserve(static_cast<std::size_t>(n));
  }

  std::vector<std::int64_t> dist_;     // unweighted BFS depth, -1 = unseen
  std::vector<weight_t> wdist_;        // weighted distance, inf = unseen
  std::vector<std::uint8_t> settled_;  // weighted: popped-and-final flag
  std::vector<double> sigma_;          // shortest-path counts
  std::vector<double> delta_;          // dependencies
  std::vector<vid_t> order_;           // visit (BFS) / settle (Dijkstra) order
};

// ------------------------------------------------------------ source runs

/// One unweighted Brandes traversal from `s`: BFS forward pass counting
/// shortest paths, then the reverse sweep in *successor form* — visiting
/// vertices in reverse BFS order, every shortest-path successor v of w
/// (dist[v] == dist[w] + 1) already holds its final dependency, so
///   δ(w) = Σ_v Policy::arc_contribution(σ(w), σ(v), δ(v)).
/// Predecessors stay implicit (no predecessor sets — SNAP's small-world
/// memory optimization, §3), and only out-adjacency is read, so the same
/// sweep is correct for directed graphs.
template <class Policy, bool kMasked, class Sink>
void run_source(const CSRGraph& g, vid_t s, const std::uint8_t* edge_alive,
                SourceScratch& sc, Sink& sink) {
  sc.ensure_unweighted(g.num_vertices());
  sc.reset_touched();
  auto& dist = sc.dist();
  auto& sigma = sc.sigma();
  auto& delta = sc.delta();
  auto& order = sc.order();

  dist[static_cast<std::size_t>(s)] = 0;
  sigma[static_cast<std::size_t>(s)] = 1;
  order.push_back(s);
  // `order` doubles as the BFS queue (it is visit-ordered).
  for (std::size_t head = 0; head < order.size(); ++head) {
    const vid_t u = order[head];
    const std::int64_t du = dist[static_cast<std::size_t>(u)];
    const auto nb = g.neighbors(u);
    const auto ids = g.edge_ids(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if constexpr (kMasked) {
        if (!edge_alive[static_cast<std::size_t>(ids[i])]) continue;
      }
      const vid_t v = nb[i];
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = du + 1;
        order.push_back(v);
      }
      if (dist[static_cast<std::size_t>(v)] == du + 1)
        sigma[static_cast<std::size_t>(v)] += sigma[static_cast<std::size_t>(u)];
    }
  }
  for (std::size_t i = order.size(); i-- > 0;) {
    const vid_t w = order[i];
    const std::int64_t dw = dist[static_cast<std::size_t>(w)];
    const double sw = sigma[static_cast<std::size_t>(w)];
    const auto nb = g.neighbors(w);
    const auto ids = g.edge_ids(w);
    double dsum = 0;
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if constexpr (kMasked) {
        if (!edge_alive[static_cast<std::size_t>(ids[j])]) continue;
      }
      const vid_t v = nb[j];
      if (dist[static_cast<std::size_t>(v)] != dw + 1) continue;
      const double c = Policy::arc_contribution(
          sw, sigma[static_cast<std::size_t>(v)],
          delta[static_cast<std::size_t>(v)]);
      dsum += c;
      if constexpr (Sink::kWantEdge) sink.add_edge(ids[j], c);
    }
    delta[static_cast<std::size_t>(w)] += dsum;
    if constexpr (Sink::kWantVertex) {
      if (w != s)
        sink.add_vertex(w, Policy::vertex_score(
                               sw, delta[static_cast<std::size_t>(w)]));
    }
  }
}

/// Weighted Brandes traversal: Dijkstra forward phase producing a settle
/// order (a topological order of the shortest-path DAG), then the same
/// successor-form sweep with the weighted tightness test
/// dist[v] == dist[w] + w(w,v).  The settled flag lives in the pooled
/// scratch and is reset touched-only — no O(n) assign per source.
template <class Policy, bool kMasked, class Sink>
void run_source_weighted(const CSRGraph& g, vid_t s,
                         const std::uint8_t* edge_alive, SourceScratch& sc,
                         Sink& sink) {
  sc.ensure_weighted(g.num_vertices());
  sc.reset_touched();
  auto& dist = sc.wdist();
  auto& settled = sc.settled();
  auto& sigma = sc.sigma();
  auto& delta = sc.delta();
  auto& order = sc.order();

  using Item = std::pair<weight_t, vid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(s)] = 0;
  sigma[static_cast<std::size_t>(s)] = 1;
  pq.push({0, s});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (settled[static_cast<std::size_t>(u)]) continue;
    settled[static_cast<std::size_t>(u)] = 1;
    order.push_back(u);
    const auto nb = g.neighbors(u);
    const auto ws = g.weights(u);
    const auto ids = g.edge_ids(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if constexpr (kMasked) {
        if (!edge_alive[static_cast<std::size_t>(ids[i])]) continue;
      }
      const vid_t v = nb[i];
      const weight_t nd = d + ws[i];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        // A vertex can be relaxed without ever being settled only if it is
        // later settled via this pq entry, so `order` still covers every
        // touched slot.
        dist[static_cast<std::size_t>(v)] = nd;
        sigma[static_cast<std::size_t>(v)] = sigma[static_cast<std::size_t>(u)];
        pq.push({nd, v});
      } else if (nd == dist[static_cast<std::size_t>(v)] &&
                 !settled[static_cast<std::size_t>(v)]) {
        sigma[static_cast<std::size_t>(v)] += sigma[static_cast<std::size_t>(u)];
      }
    }
  }
  // Reverse settle order = reverse topological order of the SP DAG.
  for (std::size_t i = order.size(); i-- > 0;) {
    const vid_t w = order[i];
    const weight_t dw = dist[static_cast<std::size_t>(w)];
    const double sw = sigma[static_cast<std::size_t>(w)];
    const auto nb = g.neighbors(w);
    const auto ws = g.weights(w);
    const auto ids = g.edge_ids(w);
    double dsum = 0;
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if constexpr (kMasked) {
        if (!edge_alive[static_cast<std::size_t>(ids[j])]) continue;
      }
      const vid_t v = nb[j];
      if (dist[static_cast<std::size_t>(v)] != dw + ws[j]) continue;
      const double c = Policy::arc_contribution(
          sw, sigma[static_cast<std::size_t>(v)],
          delta[static_cast<std::size_t>(v)]);
      dsum += c;
      if constexpr (Sink::kWantEdge) sink.add_edge(ids[j], c);
    }
    delta[static_cast<std::size_t>(w)] += dsum;
    if constexpr (Sink::kWantVertex) {
      if (w != s)
        sink.add_vertex(w, Policy::vertex_score(
                               sw, delta[static_cast<std::size_t>(w)]));
    }
  }
}

// ------------------------------------------------------ source scheduling

/// How a coarse-grained run hands the source list to the thread team.
enum class SourceSchedule {
  /// Chunked cursor handout: best load balance, but which thread processes
  /// which source is scheduling-dependent, so float partials are not
  /// run-to-run reproducible.
  kDynamicChunked,
  /// Thread t owns the contiguous block [n·t/nt, n·(t+1)/nt), processed in
  /// ascending order: per-thread partials are a pure function of
  /// (source list, nt), making the reduced sums run-to-run deterministic.
  kStaticBlocked,
};

/// Sources per cursor grab in kDynamicChunked mode — amortizes the
/// fetch_add (the seed grabbed one source at a time) without starving the
/// tail of the schedule.
inline constexpr std::int64_t kSourceChunk = 8;

/// Invoke `body(i)` for every source index this thread is responsible for.
/// Called from inside a parallel::run_team body.
template <class Body>
void thread_source_loop(int t, int nt, std::int64_t num_sources,
                        SourceSchedule sched,
                        std::atomic<std::int64_t>& cursor, Body&& body) {
  if (sched == SourceSchedule::kStaticBlocked) {
    const std::int64_t lo = num_sources * t / nt;
    const std::int64_t hi = num_sources * (t + 1) / nt;
    for (std::int64_t i = lo; i < hi; ++i) body(i);
    return;
  }
  for (;;) {
    const std::int64_t lo =
        cursor.fetch_add(kSourceChunk, std::memory_order_relaxed);
    if (lo >= num_sources) break;
    const std::int64_t hi = std::min(num_sources, lo + kSourceChunk);
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }
}

// --------------------------------------------------------------- reduction

/// Deterministic parallel reduction of per-thread accumulators:
/// out[i] = scale * Σ_t parts[t][i].  Parallelized over contiguous element
/// blocks; within an element the partials are folded in ascending thread
/// order, so the summation order per element is fixed no matter how many
/// worker threads execute the reduction.  Replaces the serial
/// O(p·(n+m)) thread-major loops the seed used.
inline void reduce_partials(const std::vector<std::vector<double>>& parts,
                            std::size_t len, double scale, double* out) {
  const auto n = static_cast<std::int64_t>(len);
  parallel::parallel_for(n, [&](std::int64_t i) {
    double acc = 0;
    for (const auto& p : parts) acc += p[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = scale * acc;
  });
}

// -------------------------------------------------------- fine granularity

/// Fine-grained Brandes (§3's low-memory mode): one traversal at a time,
/// parallelism *within* the level-synchronous forward pass (arc-balanced
/// frontier expansion) and the level-by-level backward sweep.  O(m+n) shared
/// state.  Perf structure:
///   * level buffers are pooled and swapped, never copied;
///   * between sources only the vertices the previous traversal touched are
///     reinitialized (the level lists record exactly that set).
/// Returns raw (unhalved) vertex/edge accumulators sized n / m.
inline void fine_grained_accumulate(const CSRGraph& g,
                                    std::vector<double>& vacc,
                                    std::vector<double>& eacc) {
  const vid_t n = g.num_vertices();
  std::vector<std::atomic<std::int64_t>> dist(static_cast<std::size_t>(n));
  std::vector<std::atomic<double>> sigma(static_cast<std::size_t>(n));
  std::vector<std::atomic<double>> delta(static_cast<std::size_t>(n));
  vacc.assign(static_cast<std::size_t>(n), 0.0);
  eacc.assign(static_cast<std::size_t>(g.num_edges()), 0.0);

  parallel::parallel_for(n, [&](vid_t v) {
    dist[static_cast<std::size_t>(v)].store(-1, std::memory_order_relaxed);
    sigma[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
    delta[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  });

  std::vector<std::vector<vid_t>> levels;  // pooled level buffers
  std::size_t depth = 0;                   // levels used by the last source
  FrontierPool pool;                       // per-level expansion scratch
  std::vector<vid_t> next;                 // reused level output
  const int nt = parallel::num_threads();
  for (vid_t s = 0; s < n; ++s) {
    // Touched-only reinit: the previous source's level lists are exactly its
    // visited set (the seed re-zeroed all n slots per source).
    for (std::size_t li = 0; li < depth; ++li) {
      const auto& lvl = levels[li];
      parallel::parallel_for(
          static_cast<std::int64_t>(lvl.size()), [&](std::int64_t i) {
            const auto v =
                static_cast<std::size_t>(lvl[static_cast<std::size_t>(i)]);
            dist[v].store(-1, std::memory_order_relaxed);
            sigma[v].store(0, std::memory_order_relaxed);
            delta[v].store(0, std::memory_order_relaxed);
          });
    }
    dist[static_cast<std::size_t>(s)].store(0);
    sigma[static_cast<std::size_t>(s)].store(1);
    if (levels.empty()) levels.emplace_back();
    levels[0].assign(1, s);
    depth = 1;

    // Forward: level-synchronous path counting on the shared frontier
    // substrate — arcs of the level are split evenly across threads, so a
    // hub in the frontier cannot serialize the expansion.
    while (!levels[depth - 1].empty()) {
      const auto& cur = levels[depth - 1];
      const auto d = static_cast<std::int64_t>(depth) - 1;
      expand_arc_balanced(g, cur, next, pool, nt, [&](vid_t u, vid_t v) {
        const double su =
            sigma[static_cast<std::size_t>(u)].load(std::memory_order_relaxed);
        std::int64_t expected = -1;
        const bool newly =
            dist[static_cast<std::size_t>(v)].compare_exchange_strong(
                expected, d + 1, std::memory_order_relaxed);
        if (dist[static_cast<std::size_t>(v)].load(std::memory_order_relaxed) ==
            d + 1) {
          // reduction: path-count accumulation; addition order varies with
          // scheduling.  Counts are integers, so the sum is exact (and
          // thread-count invariant) until sigma exceeds 2^53.
          parallel::atomic_add(sigma[static_cast<std::size_t>(v)], su);
        }
        return newly;
      });
      if (levels.size() <= depth) levels.emplace_back();
      levels[depth].swap(next);  // keep both buffers' capacity pooled
      ++depth;
    }

    // Backward: accumulate dependencies level by level (deepest first) in
    // successor form — each w reads only deeper (already-final) deltas and
    // writes only its own slots, so the level sweep needs no atomics.
    for (std::size_t li = depth; li-- > 0;) {
      const auto& lvl = levels[li];
      parallel::parallel_for_dynamic(
          static_cast<std::int64_t>(lvl.size()),
          [&](std::int64_t i) {
            const vid_t w = lvl[static_cast<std::size_t>(i)];
            const std::int64_t dw =
                dist[static_cast<std::size_t>(w)].load(
                    std::memory_order_relaxed);
            const double sw = sigma[static_cast<std::size_t>(w)].load(
                std::memory_order_relaxed);
            const auto nb = g.neighbors(w);
            const auto ids = g.edge_ids(w);
            double dsum = 0;
            for (std::size_t j = 0; j < nb.size(); ++j) {
              const vid_t v = nb[j];
              if (dist[static_cast<std::size_t>(v)].load(
                      std::memory_order_relaxed) != dw + 1)
                continue;
              const double c = BetweennessPolicy::arc_contribution(
                  sw,
                  sigma[static_cast<std::size_t>(v)].load(
                      std::memory_order_relaxed),
                  delta[static_cast<std::size_t>(v)].load(
                      std::memory_order_relaxed));
              dsum += c;
              // Each edge has exactly one endpoint on the shallower level,
              // so eacc[id] is written by one vertex per sweep: no atomics.
              eacc[static_cast<std::size_t>(ids[j])] += c;
            }
            delta[static_cast<std::size_t>(w)].store(
                dsum, std::memory_order_relaxed);
            if (w != s) vacc[static_cast<std::size_t>(w)] += dsum;
          },
          /*chunk=*/64);
    }
  }
}

// ------------------------------------------------------- component scoring

/// Edge-betweenness scorer for the divisive community algorithms (GN, pBD):
/// scores one component at a time, with traversal sources restricted to the
/// component, per-thread pooled scratch and accumulators, and the
/// deterministic kStaticBlocked schedule — score(C) is a pure function of
/// (component vertex list, alive mask, thread count), which is the property
/// the component-restricted recomputation argument rests on (see
/// docs/ALGORITHMS.md).
///
/// Accumulators are full-length (indexed by logical edge id) but touched
/// entries are zeroed during the merge, so a rescoring round costs
/// O(sources · (m_c + n_c)), independent of the full graph size.
class ComponentScorer {
 public:
  explicit ComponentScorer(const CSRGraph& g) : g_(g) {}

  /// Serial scoring cutoff: components with at most this many vertices are
  /// scored by one thread (callers may then score several such components
  /// concurrently via `score_serial` on distinct slots).
  static constexpr vid_t kSerialCutoff = 256;

  /// Pre-allocate pooled slots.  Must be called before `score_serial` is
  /// used from concurrent threads — slot allocation itself is not
  /// thread-safe, only use of distinct already-allocated slots is.
  void reserve(int nslots) { prepare(nslots); }

  /// Score the component `verts` from `sources` (both in ascending vertex
  /// order), writing scale * betweenness into `scores[edge_id]` for every
  /// alive edge of the component.  Uses source-parallel traversals for
  /// components above `serial_cutoff` vertices and one serial pass below;
  /// the cutoff is per-component (never a function of other components'
  /// state), so score(C) stays a pure function of (C, alive|C, nt) — either
  /// path is bitwise-deterministic at a fixed thread count.
  void score(const std::vector<vid_t>& verts, const std::vector<vid_t>& sources,
             const std::vector<std::uint8_t>& alive, double scale,
             std::vector<double>& scores, vid_t serial_cutoff = kSerialCutoff) {
    if (verts.size() < 2) return;
    const int nt = parallel::num_threads();
    if (nt == 1 || static_cast<vid_t>(verts.size()) <= serial_cutoff) {
      score_serial(0, verts, sources, alive, scale, scores);
      return;
    }
    prepare(nt);
    const auto num_sources = static_cast<std::int64_t>(sources.size());
    std::atomic<std::int64_t> cursor{0};
    parallel::run_team(nt, [&](int t) {
      auto& part = partial(t);
      auto& sc = scratch_[static_cast<std::size_t>(t)];
      ArraySink</*v=*/false, /*e=*/true> sink{nullptr, part.data()};
      thread_source_loop(t, nt, num_sources, SourceSchedule::kStaticBlocked,
                         cursor, [&](std::int64_t i) {
                           run_source<BetweennessPolicy, /*kMasked=*/true>(
                               g_, sources[static_cast<std::size_t>(i)],
                               alive.data(), sc, sink);
                         });
    });
    merge(nt, verts, alive, scale, scores);
  }

  /// Serial variant pinned to scratch/accumulator `slot`; safe to call
  /// concurrently for components with disjoint edge sets as long as each
  /// caller uses a distinct slot (pBD's coarse granularity mode).
  void score_serial(int slot, const std::vector<vid_t>& verts,
                    const std::vector<vid_t>& sources,
                    const std::vector<std::uint8_t>& alive, double scale,
                    std::vector<double>& scores) {
    if (verts.size() < 2) return;
    prepare(slot + 1);
    auto& part = partial(slot);
    auto& sc = scratch_[static_cast<std::size_t>(slot)];
    ArraySink</*v=*/false, /*e=*/true> sink{nullptr, part.data()};
    for (vid_t s : sources)
      run_source<BetweennessPolicy, /*kMasked=*/true>(g_, s, alive.data(), sc,
                                                      sink);
    merge_slot_range(slot, slot + 1, verts, alive, scale, scores,
                     /*parallel=*/false);
  }

  /// Number of pooled slots currently allocated (for tests).
  [[nodiscard]] int slots() const { return static_cast<int>(scratch_.size()); }

 private:
  void prepare(int nt) {
    if (static_cast<int>(scratch_.size()) < nt) {
      scratch_.resize(static_cast<std::size_t>(nt));
      partial_.resize(static_cast<std::size_t>(nt));
    }
  }

  std::vector<double>& partial(int t) {
    auto& p = partial_[static_cast<std::size_t>(t)];
    // Zero-initialized on first use; thereafter the merge re-zeroes every
    // touched entry, so the invariant "all zero on entry" holds.
    if (p.empty()) p.assign(static_cast<std::size_t>(g_.num_edges()), 0.0);
    return p;
  }

  void merge(int nt, const std::vector<vid_t>& verts,
             const std::vector<std::uint8_t>& alive, double scale,
             std::vector<double>& scores) {
    merge_slot_range(0, nt, verts, alive, scale, scores, /*parallel=*/true);
  }

  /// scores[id] = scale * Σ_slot partial[slot][id] for every alive edge of
  /// the component (visited once via its lower-endpoint arc), then zero the
  /// partial entries (touched-only reset of the pooled accumulators).
  /// Ascending-slot fold per edge keeps the sum order fixed.
  void merge_slot_range(int lo_slot, int hi_slot,
                        const std::vector<vid_t>& verts,
                        const std::vector<std::uint8_t>& alive, double scale,
                        std::vector<double>& scores, bool parallel) {
    auto merge_vertex = [&](vid_t u) {
      const auto nb = g_.neighbors(u);
      const auto ids = g_.edge_ids(u);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (nb[i] < u) continue;  // one visit per undirected edge
        const auto id = static_cast<std::size_t>(ids[i]);
        double acc = 0;
        for (int t = lo_slot; t < hi_slot; ++t) {
          auto& p = partial_[static_cast<std::size_t>(t)];
          if (p.empty()) continue;
          acc += p[id];
          p[id] = 0;
        }
        if (alive[id]) scores[id] = scale * acc;
      }
    };
    if (parallel) {
      parallel::parallel_for_dynamic(
          static_cast<std::int64_t>(verts.size()),
          [&](std::int64_t i) {
            merge_vertex(verts[static_cast<std::size_t>(i)]);
          },
          /*chunk=*/64);
    } else {
      for (vid_t u : verts) merge_vertex(u);
    }
  }

  const CSRGraph& g_;
  std::vector<SourceScratch> scratch_;
  std::vector<std::vector<double>> partial_;
};

}  // namespace snap::brandes
