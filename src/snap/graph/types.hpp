#pragma once

#include <cstdint>
#include <vector>

namespace snap {

/// Vertex id.  64-bit throughout: the paper's stated ambition is graphs with
/// 100 million to 10 billion entities (§1).
using vid_t = std::int64_t;
/// Edge / arc id.
using eid_t = std::int64_t;
/// Edge weight.  The paper assumes positive weights, w(e) = 1 when unweighted.
using weight_t = double;

inline constexpr vid_t kInvalidVid = -1;
inline constexpr eid_t kInvalidEid = -1;

/// A single (possibly weighted) edge of the input interaction data.
struct Edge {
  vid_t u = kInvalidVid;
  vid_t v = kInvalidVid;
  weight_t w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

using EdgeList = std::vector<Edge>;

/// Which engine a kernel with both a serial and a parallel implementation
/// runs (the `path` field of BuildOptions, LouvainParams, LabelPropParams and
/// PageRankParams).  `kAuto` lets parallel::use_parallel decide from the
/// input size and thread count; the forced values exist for the differential
/// and determinism suites, which hold the serial path as the oracle and
/// require both to produce bitwise identical results.
enum class ExecPath { kAuto, kSerial, kParallel };

}  // namespace snap
