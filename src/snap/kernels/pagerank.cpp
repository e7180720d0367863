#include "snap/kernels/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "snap/debug/check.hpp"
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

/// The engine, generic over the adjacency read path: `deg(v)` is the stored
/// arc count and `row_sum(v, contrib)` returns the exact integer sum of
/// contrib over v's neighbors.  Every reduction is an integer sum, so the
/// serial and parallel paths — and any regrouping a caller's layout implies
/// — are bitwise identical by construction (exact ordered reduction).
template <typename DegFn, typename RowSumFn>
PageRankResult run_flat(vid_t n, const PageRankParams& params, DegFn&& deg,
                        RowSumFn&& row_sum) {
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
    auto scatter = [&](vid_t v) {
      const auto sv = static_cast<std::size_t>(v);
      const eid_t d = deg(v);
      contrib[sv] = d > 0 ? mass[sv] / static_cast<std::uint64_t>(d) : 0;
    };
    auto gather = [&](vid_t v) {
      next[static_cast<std::size_t>(v)] = damp(row_sum(v, contrib), d_num);
    };
    std::uint64_t kept = 0;
    if (par) {
      parallel::parallel_for(n, scatter);
      parallel::parallel_for(n, gather);
      kept = parallel::parallel_reduce_sum<std::uint64_t>(n, [&](vid_t v) {
        return next[static_cast<std::size_t>(v)];
      });
    } else {
      for (vid_t v = 0; v < n; ++v) scatter(v);
      for (vid_t v = 0; v < n; ++v) gather(v);
      for (vid_t v = 0; v < n; ++v) kept += next[static_cast<std::size_t>(v)];
    }
    // Teleport + dangling + rounding loss, redistributed uniformly; total
    // mass is exactly kTotalMass after every iteration.
    const std::uint64_t pool = kTotalMass - kept;
    const std::uint64_t share = pool / un;
    const std::uint64_t rem = pool % un;
    auto settle = [&](vid_t v) -> std::uint64_t {
      const auto sv = static_cast<std::size_t>(v);
      next[sv] += share + (static_cast<std::uint64_t>(v) < rem ? 1 : 0);
      const std::uint64_t m = mass[sv];
      return next[sv] > m ? next[sv] - m : m - next[sv];
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
  SNAP_ASSERT(!g.directed(),
              "pagerank requires an undirected graph (fold with "
              "as_undirected)");
  const vid_t n = g.num_vertices();
  return run_flat(
      n, params, [&](vid_t v) { return g.degree(v); },
      [&](vid_t v, const std::vector<std::uint64_t>& contrib) {
        std::uint64_t s = 0;
        for (const vid_t u : g.neighbors(v))
          s += contrib[static_cast<std::size_t>(u)];
        return s;
      });
}

PageRankResult pagerank_compressed(const CompressedCSR& g,
                                   const PageRankParams& params) {
  SNAP_ASSERT(!g.directed(),
              "pagerank_compressed requires an undirected graph");
  const vid_t n = g.num_vertices();
  // Decode degrees once: the scatter phase needs deg(v) per vertex and the
  // varint header read is cheap but not free.
  std::vector<eid_t> deg(static_cast<std::size_t>(n));
  parallel::parallel_for(
      n, [&](vid_t v) { deg[static_cast<std::size_t>(v)] = g.degree(v); });
  return run_flat(
      n, params,
      [&](vid_t v) { return deg[static_cast<std::size_t>(v)]; },
      [&](vid_t v, const std::vector<std::uint64_t>& contrib) {
        std::uint64_t s = 0;
        g.for_each_neighbor(
            v, [&](vid_t u) { s += contrib[static_cast<std::size_t>(u)]; });
        return s;
      });
}

}  // namespace snap
