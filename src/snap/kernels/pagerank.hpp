#pragma once

// Deterministic PageRank in 64-bit fixed point.
//
// The power iteration itself is textbook: rank flows along arcs, damped by
// d, with the residual (teleport + dangling + rounding) pool redistributed
// uniformly.  What is not textbook is the arithmetic: SNAP represents rank
// MASS as 64-bit fixed-point integers (the unit is 2^-60 of the total), so
// every accumulation in the engine is an exact integer add — associative
// and commutative.  That one choice buys the whole determinism story:
//
//   * the parallel flat path reduces per-thread partials in any order and
//     still matches the serial oracle bitwise;
//   * the owner-computes partitioned engine can SUM-COMBINE boundary mass
//     pushes per destination vertex (O(cut edges) -> O(boundary vertices)
//     traffic) and still match the flat engine bitwise at every
//     (threads x shards) combination, because regrouping exact adds is
//     invisible.
//
// With IEEE doubles none of that holds — float addition does not
// associate, so any combiner or shard-count change would perturb the last
// bits.  See docs/ALGORITHMS.md "PageRank & the exchange layer".
//
// Spec (one iteration over n vertices, total mass T = 2^60, quantized
// damping D = d_num / 2^30):
//
//   contrib[u] = deg(u) > 0 ? mass[u] / deg(u) : 0        (floor division)
//   inflow[v]  = sum over stored arcs (u, v) of contrib[u]
//   kept[v]    = (inflow[v] * d_num) >> 30                 (128-bit product)
//   pool       = T - sum kept[v]     (teleport + dangling + rounding loss)
//   next[v]    = kept[v] + pool / n + (v < pool mod n ? 1 : 0)
//
// Total mass is exactly T after every iteration; the residual is the exact
// integer L1 distance |next - mass|.  Graphs are treated as unweighted
// (degree = stored arc count) and must be undirected, the same contract as
// every other shard-parallel kernel.

#include <cstdint>
#include <vector>

#include "snap/graph/csr_graph.hpp"

namespace snap {

class CompressedCSR;

/// Total mass is 2^kPageRankMassBits; rank[v] = mass[v] / 2^kPageRankMassBits.
inline constexpr int kPageRankMassBits = 60;
/// Damping is quantized to d_num / 2^kPageRankDampBits.
inline constexpr int kPageRankDampBits = 30;
inline constexpr std::uint64_t kPageRankTotalMass = std::uint64_t{1}
                                                    << kPageRankMassBits;

struct PageRankParams {
  /// Damping factor d (quantized to kPageRankDampBits fractional bits).
  double damping = 0.85;
  /// Iteration cap.
  int max_iters = 50;
  /// Early-exit threshold on the L1 residual, expressed on the unit total
  /// (the exact integer residual is compared against tol * 2^60).  0 = run
  /// exactly max_iters — what the byte-exact service endpoint uses.
  double tol = 1e-9;
  /// Sweep engine; `kAuto` goes parallel from parallel::kParallelVertexCutoff
  /// vertices.
  ExecPath path = ExecPath::kAuto;
};

struct PageRankResult {
  /// Per-vertex rank, mass[v] / 2^60; sums to 1 up to double rounding.
  std::vector<double> rank;
  /// The exact fixed-point state (what the determinism harness hashes).
  std::vector<std::uint64_t> mass;
  /// Iterations actually run.
  int iterations = 0;
  /// Final L1 residual on the unit total (exact integer / 2^60).
  double residual = 0.0;
};

/// Flat PageRank over a CSR graph.  Undirected graphs only; weights are
/// ignored (unweighted spec).  Bitwise deterministic at every thread count,
/// and the serial and parallel paths match bitwise.
[[nodiscard]] PageRankResult pagerank(const CSRGraph& g,
                                      const PageRankParams& params = {});

/// The same engine instantiated on the delta/varint-compressed adjacency
/// (any AdjacencyView runs it): decodes each row instead of streaming it.
/// Mass vector is bitwise identical to pagerank() on the source graph.
[[nodiscard]] PageRankResult pagerank_compressed(
    const CompressedCSR& g, const PageRankParams& params = {});

namespace pagerank_detail {

// The arithmetic spec shared by the flat engines above and the partitioned
// owner-computes engine (PartitionedCSR::pagerank): both call exactly these
// helpers, so there is one definition of the damping quantization, the
// 128-bit damp product, the initial mass split and the result conversion —
// the differential suite then compares orchestration, not arithmetic.

[[nodiscard]] std::uint64_t quantized_damping(double damping);
[[nodiscard]] std::uint64_t damp(std::uint64_t inflow, std::uint64_t d_num);
[[nodiscard]] std::uint64_t residual_threshold(double tol);
/// mass[v] = T/n plus one extra unit for v < T mod n (exactly T in total).
void init_mass(std::vector<std::uint64_t>& mass, vid_t n);
[[nodiscard]] PageRankResult finalize(std::vector<std::uint64_t> mass,
                                      int iterations, std::uint64_t residual);

}  // namespace pagerank_detail

}  // namespace snap
