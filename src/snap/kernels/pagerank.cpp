#include "snap/kernels/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "snap/debug/check.hpp"
#include "snap/graph/adjacency.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

constexpr std::uint64_t kTotalMass = kPageRankTotalMass;

}  // namespace

namespace pagerank_detail {

std::uint64_t quantized_damping(double damping) {
  SNAP_ASSERT(damping >= 0.0 && damping < 1.0, "pagerank: damping ", damping,
              " must be in [0, 1)");
  const double scaled =
      damping * static_cast<double>(std::uint64_t{1} << kPageRankDampBits);
  return static_cast<std::uint64_t>(std::llround(scaled));
}

std::uint64_t damp(std::uint64_t inflow, std::uint64_t d_num) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(inflow) * d_num) >> kPageRankDampBits);
}

std::uint64_t residual_threshold(double tol) {
  if (tol <= 0.0) return 0;
  const double scaled = tol * static_cast<double>(kTotalMass);
  if (scaled >= static_cast<double>(kTotalMass)) return kTotalMass;
  return static_cast<std::uint64_t>(scaled);
}

void init_mass(std::vector<std::uint64_t>& mass, vid_t n) {
  const std::uint64_t share = kTotalMass / static_cast<std::uint64_t>(n);
  const std::uint64_t rem = kTotalMass % static_cast<std::uint64_t>(n);
  for (vid_t v = 0; v < n; ++v)
    mass[static_cast<std::size_t>(v)] =
        share + (static_cast<std::uint64_t>(v) < rem ? 1 : 0);
}

PageRankResult finalize(std::vector<std::uint64_t> mass, int iterations,
                        std::uint64_t residual) {
  PageRankResult out;
  out.iterations = iterations;
  out.residual =
      static_cast<double>(residual) / static_cast<double>(kTotalMass);
  out.rank.resize(mass.size());
  const double inv = 1.0 / static_cast<double>(kTotalMass);
  for (std::size_t v = 0; v < mass.size(); ++v)
    out.rank[v] = static_cast<double>(mass[v]) * inv;
  out.mass = std::move(mass);
  return out;
}

}  // namespace pagerank_detail

namespace {

using pagerank_detail::damp;
using pagerank_detail::finalize;
using pagerank_detail::init_mass;
using pagerank_detail::quantized_damping;
using pagerank_detail::residual_threshold;

/// The engine, generic over the layout (any AdjacencyView): the scatter
/// reads each vertex's stored arc count, the gather sums contrib over its
/// row through the view's visitor.  Every reduction is an integer sum, so
/// the serial and parallel paths — and any regrouping a layout implies —
/// are bitwise identical by construction (exact ordered reduction).
template <AdjacencyView G>
PageRankResult run_flat(const G& g, const PageRankParams& params) {
  SNAP_ASSERT(!g.directed(),
              "pagerank requires an undirected graph (fold with "
              "as_undirected)");
  const vid_t n = g.num_vertices();
  PageRankResult empty;
  if (n == 0) return empty;
  SNAP_ASSERT(params.max_iters >= 0, "pagerank: max_iters ", params.max_iters,
              " must be non-negative");
  const std::uint64_t d_num = quantized_damping(params.damping);
  const std::uint64_t tol_mass = residual_threshold(params.tol);
  const bool par =
      parallel::use_parallel(params.path, n, parallel::kParallelVertexCutoff);
  const auto un = static_cast<std::uint64_t>(n);

  std::vector<std::uint64_t> mass(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> contrib(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
  init_mass(mass, n);

  int iterations = 0;
  std::uint64_t residual = 0;
  for (int it = 0; it < params.max_iters; ++it) {
    // Plain array pointers, captured by value: the per-vertex loops read no
    // state through the closures on this (the forking thread's) stack.
    const std::uint64_t* const cur = mass.data();
    std::uint64_t* const out = contrib.data();
    std::uint64_t* const nxt = next.data();
    auto scatter = [&g, cur, out](vid_t v) {
      const eid_t d = g.degree(v);
      out[v] = d > 0 ? cur[v] / static_cast<std::uint64_t>(d) : 0;
    };
    auto gather = [&g, out, nxt, d_num](vid_t v) {
      std::uint64_t sum = 0;
      g.for_each_neighbor_while(v, [&](vid_t u) {
        sum += out[u];
        return true;
      });
      nxt[v] = damp(sum, d_num);
    };
    std::uint64_t kept = 0;
    if (par) {
      parallel::parallel_for(n, scatter);
      parallel::parallel_for(n, gather);
      kept = parallel::parallel_reduce_sum<std::uint64_t>(
          n, [nxt](vid_t v) { return nxt[v]; });
    } else {
      for (vid_t v = 0; v < n; ++v) scatter(v);
      for (vid_t v = 0; v < n; ++v) gather(v);
      for (vid_t v = 0; v < n; ++v) kept += nxt[v];
    }
    // Teleport + dangling + rounding loss, redistributed uniformly; total
    // mass is exactly kTotalMass after every iteration.
    const std::uint64_t pool = kTotalMass - kept;
    const std::uint64_t share = pool / un;
    const std::uint64_t rem = pool % un;
    auto settle = [cur, nxt, share, rem](vid_t v) -> std::uint64_t {
      nxt[v] += share + (static_cast<std::uint64_t>(v) < rem ? 1 : 0);
      return nxt[v] > cur[v] ? nxt[v] - cur[v] : cur[v] - nxt[v];
    };
    if (par) {
      residual = parallel::parallel_reduce_sum<std::uint64_t>(n, settle);
    } else {
      residual = 0;
      for (vid_t v = 0; v < n; ++v) residual += settle(v);
    }
    mass.swap(next);
    iterations = it + 1;
    if (tol_mass > 0 && residual <= tol_mass) break;
  }
  return finalize(std::move(mass), iterations, residual);
}

}  // namespace

PageRankResult pagerank(const CSRGraph& g, const PageRankParams& params) {
  return run_flat(g, params);
}

PageRankResult pagerank_compressed(const CompressedCSR& g,
                                   const PageRankParams& params) {
  return run_flat(g, params);
}

}  // namespace snap
