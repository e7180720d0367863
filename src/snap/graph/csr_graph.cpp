#include "snap/graph/csr_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

namespace {

/// Inputs below this many edges build serially: the parallel pipeline's
/// fork/join and scratch allocations cost more than the build itself.
constexpr std::int64_t kParallelBuildCutoff = 1 << 15;

/// Total-order edge comparator used by dedupe on BOTH build paths.  Keying
/// on (u, v, w) — not just (u, v) — makes the sorted sequence unique, so
/// the edge a dedupe keeps (the smallest-weight one of each parallel group)
/// is the same at every thread count and for both pipelines.
inline bool edge_key_less(const Edge& a, const Edge& b) {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.w < b.w;
}

inline bool same_endpoints(const Edge& a, const Edge& b) {
  return a.u == b.u && a.v == b.v;
}

[[noreturn]] void throw_out_of_range(std::size_t input_index) {
  throw std::out_of_range(
      "CSRGraph::from_edges: vertex id out of range at input edge " +
      std::to_string(input_index));
}

/// Serial validate/normalize/filter + dedupe — the reference semantics the
/// parallel path must reproduce exactly.
EdgeList prepare_edges_serial(vid_t n, const EdgeList& input, bool directed,
                              const BuildOptions& opts) {
  EdgeList edges;
  edges.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Edge& e = input[i];
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) throw_out_of_range(i);
    if (opts.remove_self_loops && e.u == e.v) continue;
    Edge c = e;
    if (!directed && c.u > c.v) std::swap(c.u, c.v);
    edges.push_back(c);
  }
  if (opts.dedupe) {
    std::sort(edges.begin(), edges.end(), edge_key_less);
    edges.erase(std::unique(edges.begin(), edges.end(), same_endpoints),
                edges.end());
  }
  return edges;
}

/// Parallel prepare: per-thread validate/normalize/filter buffers compacted
/// via a prefix sum over buffer sizes; out-of-range ids are aggregated (the
/// lowest offending input index) instead of thrown mid-loop, so the error a
/// caller sees does not depend on scheduling.  Dedupe is parallel_sort on
/// the (u, v, w) key followed by a parallel_pack `unique` compaction.
EdgeList prepare_edges_parallel(vid_t n, const EdgeList& input, bool directed,
                                const BuildOptions& opts) {
  const std::size_t in_sz = input.size();
  const int nt = parallel::num_threads();
  constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

  std::vector<EdgeList> local(static_cast<std::size_t>(nt));
  std::vector<std::size_t> first_bad(static_cast<std::size_t>(nt), kNoError);
  parallel::run_team(nt, [&](int t) {
    const std::size_t lo = in_sz * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(nt);
    const std::size_t hi = in_sz * (static_cast<std::size_t>(t) + 1) /
                           static_cast<std::size_t>(nt);
    EdgeList& buf = local[static_cast<std::size_t>(t)];
    buf.reserve(hi - lo);
    std::size_t bad = kNoError;
    for (std::size_t i = lo; i < hi; ++i) {
      const Edge& e = input[i];
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
        if (bad == kNoError) bad = i;
        continue;
      }
      if (opts.remove_self_loops && e.u == e.v) continue;
      Edge c = e;
      if (!directed && c.u > c.v) std::swap(c.u, c.v);
      buf.push_back(c);
    }
    first_bad[static_cast<std::size_t>(t)] = bad;
  });
  const std::size_t bad =
      *std::min_element(first_bad.begin(), first_bad.end());
  if (bad != kNoError) throw_out_of_range(bad);

  // Compact the per-thread buffers; block order == input order, so the
  // prepared list matches the serial pass element for element.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t)
    sizes[static_cast<std::size_t>(t)] = local[static_cast<std::size_t>(t)].size();
  std::vector<std::size_t> offs;
  parallel::exclusive_prefix_sum(sizes, offs);
  EdgeList edges(offs[static_cast<std::size_t>(nt)]);
  parallel::run_team(nt, [&](int t) {
    const EdgeList& buf = local[static_cast<std::size_t>(t)];
    std::copy(buf.begin(), buf.end(),
              edges.begin() + static_cast<std::ptrdiff_t>(
                                  offs[static_cast<std::size_t>(t)]));
  });

  if (opts.dedupe) {
    parallel::parallel_sort(edges.begin(), edges.end(), edge_key_less);
    edges = parallel::parallel_pack<Edge>(
        edges.size(),
        [&](std::size_t i) {
          return i == 0 || !same_endpoints(edges[i - 1], edges[i]);
        },
        [&](std::size_t i) { return edges[i]; });
  }
  return edges;
}

/// Sort each vertex's adjacency slice by (neighbor, edge id).  The edge id
/// tiebreak makes the layout a pure function of the logical edge list —
/// arcs arriving in any placement order land identically — which is what
/// lets the parallel builder use unordered atomic-cursor placement and
/// still match the serial reference byte for byte.  `weights` is empty for
/// an unweighted graph.
void sort_adjacency_slices(vid_t n, const std::vector<eid_t>& offsets,
                           std::vector<vid_t>& adj,
                           std::vector<weight_t>& weights,
                           std::vector<eid_t>& arc_edge_ids) {
  const bool weighted = !weights.empty();
  parallel::parallel_for_dynamic(n, [&](vid_t v) {
    const eid_t lo = offsets[static_cast<std::size_t>(v)];
    const eid_t hi = offsets[static_cast<std::size_t>(v) + 1];
    const auto len = static_cast<std::size_t>(hi - lo);
    if (len < 2) return;
    std::vector<eid_t> idx(len);
    std::iota(idx.begin(), idx.end(), lo);
    std::sort(idx.begin(), idx.end(), [&](eid_t a, eid_t b) {
      const auto sa = static_cast<std::size_t>(a);
      const auto sb = static_cast<std::size_t>(b);
      if (adj[sa] != adj[sb]) return adj[sa] < adj[sb];
      return arc_edge_ids[sa] < arc_edge_ids[sb];
    });
    std::vector<vid_t> a2(len);
    std::vector<weight_t> w2(weighted ? len : 0);
    std::vector<eid_t> id2(len);
    for (std::size_t i = 0; i < len; ++i) {
      a2[i] = adj[idx[i]];
      if (weighted) w2[i] = weights[idx[i]];
      id2[i] = arc_edge_ids[idx[i]];
    }
    std::copy(a2.begin(), a2.end(),
              adj.begin() + static_cast<std::ptrdiff_t>(lo));
    if (weighted)
      std::copy(w2.begin(), w2.end(),
                weights.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(id2.begin(), id2.end(),
              arc_edge_ids.begin() + static_cast<std::ptrdiff_t>(lo));
  });
}

}  // namespace

CSRGraph CSRGraph::from_edges(vid_t n, const EdgeList& input, bool directed,
                              const BuildOptions& opts) {
  const bool serial = !parallel::use_parallel(
      opts.path, static_cast<std::int64_t>(input.size()),
      kParallelBuildCutoff);

  CSRGraph g;
  g.n_ = n;
  g.directed_ = directed;
  const EdgeList edges = serial
                             ? prepare_edges_serial(n, input, directed, opts)
                             : prepare_edges_parallel(n, input, directed, opts);
  g.m_ = static_cast<eid_t>(edges.size());
  [[maybe_unused]] const eid_t arcs = directed ? g.m_ : 2 * g.m_;
  g.offsets_.resize(static_cast<std::size_t>(n) + 1);

  if (serial) {
    g.weighted_ = std::any_of(edges.begin(), edges.end(),
                              [](const Edge& e) { return e.w != 1.0; });
    std::vector<eid_t> deg(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge& e : edges) {
      ++deg[static_cast<std::size_t>(e.u)];
      if (!directed) ++deg[static_cast<std::size_t>(e.v)];
    }
    parallel::exclusive_prefix_sum(deg.data(), g.offsets_.data(),
                                   static_cast<std::size_t>(n));
    SNAP_DCHECK(g.offsets_[static_cast<std::size_t>(n)] == arcs,
                "serial degree prefix sum lost arcs: offsets[n]=",
                g.offsets_[static_cast<std::size_t>(n)], " expected ", arcs);

    g.adj_.resize(static_cast<std::size_t>(arcs));
    if (g.weighted_) g.weights_.resize(static_cast<std::size_t>(arcs));
    g.arc_edge_ids_.resize(static_cast<std::size_t>(arcs));
    std::vector<eid_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    auto place = [&](vid_t from, vid_t to, weight_t w, eid_t e) {
      const eid_t a = cursor[static_cast<std::size_t>(from)]++;
      g.adj_[static_cast<std::size_t>(a)] = to;
      if (g.weighted_) g.weights_[static_cast<std::size_t>(a)] = w;
      g.arc_edge_ids_[static_cast<std::size_t>(a)] = e;
    };
    for (eid_t e = 0; e < g.m_; ++e) {
      const Edge& ed = edges[static_cast<std::size_t>(e)];
      place(ed.u, ed.v, ed.w, e);
      if (!directed) place(ed.v, ed.u, ed.w, e);
    }
  } else {
    // Per-thread degree histograms, with weighted-detection folded into the
    // same sweep (replacing the serial path's extra std::any_of pass).
    const int nt = parallel::num_threads();
    const eid_t m = g.m_;
    std::vector<std::vector<eid_t>> hist(static_cast<std::size_t>(nt));
    std::vector<unsigned char> wflag(static_cast<std::size_t>(nt), 0);
    parallel::run_team(nt, [&](int t) {
      auto& h = hist[static_cast<std::size_t>(t)];
      h.assign(static_cast<std::size_t>(n), 0);
      const eid_t lo = m * t / nt;
      const eid_t hi = m * (t + 1) / nt;
      bool weighted = false;
      for (eid_t e = lo; e < hi; ++e) {
        const Edge& ed = edges[static_cast<std::size_t>(e)];
        ++h[static_cast<std::size_t>(ed.u)];
        if (!directed) ++h[static_cast<std::size_t>(ed.v)];
        weighted |= (ed.w != 1.0);
      }
      wflag[static_cast<std::size_t>(t)] = weighted ? 1 : 0;
    });
    g.weighted_ = std::any_of(wflag.begin(), wflag.end(),
                              [](unsigned char f) { return f != 0; });

    // Reduce the histograms into one degree array (threads own disjoint
    // vertex ranges of the sum) and prefix-sum into offsets.
    std::vector<eid_t> deg(static_cast<std::size_t>(n), 0);
    parallel::parallel_for(n, [&](vid_t v) {
      eid_t d = 0;
      for (int t = 0; t < nt; ++t) d += hist[static_cast<std::size_t>(t)]
                                           [static_cast<std::size_t>(v)];
      deg[static_cast<std::size_t>(v)] = d;
    });
    parallel::exclusive_prefix_sum(deg.data(), g.offsets_.data(),
                                   static_cast<std::size_t>(n));
    SNAP_DCHECK(g.offsets_[static_cast<std::size_t>(n)] == arcs,
                "histogram reduction lost arcs: offsets[n]=",
                g.offsets_[static_cast<std::size_t>(n)], " expected ", arcs);

    // Atomic-cursor placement: arcs land in scheduling order, which the
    // (neighbor, edge id) adjacency sort below canonicalizes.
    g.adj_.resize(static_cast<std::size_t>(arcs));
    if (g.weighted_) g.weights_.resize(static_cast<std::size_t>(arcs));
    g.arc_edge_ids_.resize(static_cast<std::size_t>(arcs));
    std::vector<std::atomic<eid_t>> cursor(static_cast<std::size_t>(n));
    parallel::parallel_for(n, [&](vid_t v) {
      cursor[static_cast<std::size_t>(v)].store(
          g.offsets_[static_cast<std::size_t>(v)], std::memory_order_relaxed);
    });
    auto place = [&](vid_t from, vid_t to, weight_t w, eid_t e) {
      const eid_t a = cursor[static_cast<std::size_t>(from)].fetch_add(
          1, std::memory_order_relaxed);
      g.adj_[static_cast<std::size_t>(a)] = to;
      if (g.weighted_) g.weights_[static_cast<std::size_t>(a)] = w;
      g.arc_edge_ids_[static_cast<std::size_t>(a)] = e;
    };
    parallel::run_team(nt, [&](int t) {
      const eid_t lo = m * t / nt;
      const eid_t hi = m * (t + 1) / nt;
      for (eid_t e = lo; e < hi; ++e) {
        const Edge& ed = edges[static_cast<std::size_t>(e)];
        place(ed.u, ed.v, ed.w, e);
        if (!directed) place(ed.v, ed.u, ed.w, e);
      }
    });
  }

  if (opts.sort_adjacency) {
    sort_adjacency_slices(n, g.offsets_, g.adj_, g.weights_, g.arc_edge_ids_);
    g.sorted_ = true;
  }

  // Keep the endpoints, and the weights only when some weight is not 1.0.
  g.endpoints_.resize(edges.size());
  if (g.weighted_) g.edge_weights_.resize(edges.size());
  parallel::parallel_for(g.m_, [&](eid_t e) {
    const Edge& ed = edges[static_cast<std::size_t>(e)];
    g.endpoints_[static_cast<std::size_t>(e)] = {ed.u, ed.v};
    if (g.weighted_) g.edge_weights_[static_cast<std::size_t>(e)] = ed.w;
  });
  SNAP_VALIDATE(g);
  return g;
}

CSRGraph CSRGraph::from_parts(vid_t n, eid_t m, bool directed, bool weighted,
                              bool sorted, std::vector<eid_t> offsets,
                              std::vector<vid_t> adj,
                              std::vector<eid_t> arc_edge_ids,
                              std::vector<EdgeEndpoints> endpoints,
                              std::vector<weight_t> arc_weights,
                              std::vector<weight_t> edge_weights) {
  SNAP_ASSERT(n >= 0 && m >= 0, "from_parts: negative n=", n, " or m=", m);
  SNAP_ASSERT(offsets.size() == static_cast<std::size_t>(n) + 1,
              "from_parts: offsets size ", offsets.size(), " != n+1 = ",
              n + 1);
  const auto arcs = static_cast<std::size_t>(directed ? m : 2 * m);
  SNAP_ASSERT(adj.size() == arcs && arc_edge_ids.size() == arcs,
              "from_parts: arc array sizes (", adj.size(), ", ",
              arc_edge_ids.size(), ") != ", arcs);
  SNAP_ASSERT(endpoints.size() == static_cast<std::size_t>(m),
              "from_parts: edge list size ", endpoints.size(), " != m = ", m);
  SNAP_ASSERT(arc_weights.size() == (weighted ? arcs : 0) &&
                  edge_weights.size() == (weighted ? endpoints.size() : 0),
              "from_parts: weight array sizes (", arc_weights.size(), ", ",
              edge_weights.size(), ") do not match weighted=", weighted);
  SNAP_ASSERT(n == 0 || (offsets.front() == 0 &&
                         offsets.back() == static_cast<eid_t>(arcs)),
              "from_parts: offsets do not cover the adjacency");
  CSRGraph g;
  g.n_ = n;
  g.m_ = m;
  g.directed_ = directed;
  g.weighted_ = weighted;
  g.sorted_ = sorted;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.arc_edge_ids_ = std::move(arc_edge_ids);
  g.endpoints_ = std::move(endpoints);
  g.weights_ = std::move(arc_weights);
  g.edge_weights_ = std::move(edge_weights);
  return g;
}

bool CSRGraph::has_edge(vid_t u, vid_t v) const {
  const auto nb = neighbors(u);
  if (sorted_) return std::binary_search(nb.begin(), nb.end(), v);
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

eid_t CSRGraph::max_degree() const {
  return parallel::parallel_reduce_max<eid_t>(
      n_, [this](vid_t v) { return degree(v); });
}

weight_t CSRGraph::total_edge_weight() const {
  // m unit weights sum to m exactly, in any order.
  if (!weighted_) return static_cast<weight_t>(m_);
  return parallel::parallel_reduce_sum<weight_t>(m_, [this](eid_t e) {
    return edge_weights_[static_cast<std::size_t>(e)];
  });
}

CSRGraph CSRGraph::as_undirected() const {
  return from_edges(n_, edges().to_list(), /*directed=*/false);
}

std::size_t CSRGraph::byte_size() const {
  return offsets_.size() * sizeof(eid_t) + adj_.size() * sizeof(vid_t) +
         arc_edge_ids_.size() * sizeof(eid_t) +
         endpoints_.size() * sizeof(EdgeEndpoints) +
         (weights_.size() + edge_weights_.size()) * sizeof(weight_t);
}

EdgeList EdgeView::to_list() const {
  EdgeList out(size());
  parallel::parallel_for(size(), [&](std::size_t e) { out[e] = (*this)[e]; });
  return out;
}

bool operator==(const EdgeView& a, const EdgeView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e)
    if (a[e] != b[e]) return false;
  return true;
}

}  // namespace snap
