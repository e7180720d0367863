#pragma once

// Delta/varint-compressed CSR neighbor lists.
//
// Pull-direction kernels on large small-world graphs are bandwidth-bound:
// the bottom-up BFS levels stream most of the adjacency array per level,
// and at 8 bytes per arc the memory system — not the core — sets the rate.
// CompressedCSR stores each vertex's neighbor list as a leading degree
// varint followed by zigzag-encoded deltas (first neighbor relative to the
// vertex id, then consecutive gaps), which lands at 1–2 bytes per arc on
// reordered small-world instances: the same traversal touches ~4–8x fewer
// bytes.  Decoding is branch-light shift/or work that pipelines under the
// memory latency the uncompressed scan would spend stalled.
//
// CompressedCSR is an AdjacencyView (snap/graph/adjacency.hpp) without
// contiguous rows: kernels reach it through the same templates that run on
// CSRGraph — the direction-optimizing BFS (`bfs_compressed`) and PageRank
// (`pagerank_compressed`) are instantiations, not separate engines.
//
// The encoding is a pure function of the graph: a two-pass parallel encode
// (exact per-vertex byte lengths, prefix sum, scatter into disjoint slices)
// produces byte-identical buffers at every thread count, which is what the
// determinism harness checks.  Decoding is exact — the visitor replays the
// original adjacency row value for value (the differential test compares
// both, generator by generator).

#include <cstdint>
#include <span>
#include <vector>

#include "snap/debug/check.hpp"
#include "snap/graph/csr_graph.hpp"

namespace snap {

namespace detail {

inline std::uint64_t zigzag_encode(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) << 1) ^
         static_cast<std::uint64_t>(x >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

/// Bytes LEB128 needs for `u` (1..10).
inline std::size_t varint_length(std::uint64_t u) {
  std::size_t len = 1;
  while (u >= 0x80) {
    u >>= 7;
    ++len;
  }
  return len;
}

/// Append LEB128(u) at `out`; returns one past the last byte written.
inline std::uint8_t* varint_write(std::uint8_t* out, std::uint64_t u) {
  while (u >= 0x80) {
    *out++ = static_cast<std::uint8_t>(u) | 0x80;
    u >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(u);
  return out;
}

/// Read LEB128 at `p`; advances `p`.
inline std::uint64_t varint_read(const std::uint8_t*& p) {
  std::uint64_t u = 0;
  int shift = 0;
  while (*p & 0x80) {
    u |= static_cast<std::uint64_t>(*p++ & 0x7f) << shift;
    shift += 7;
  }
  u |= static_cast<std::uint64_t>(*p++) << shift;
  return u;
}

}  // namespace detail

/// Compressed read-only adjacency (no weights, no edge ids): the
/// representation the bandwidth-bound pull kernels stream.  Build one from
/// a CSRGraph pre-pass; vertex ids and iteration order are identical to the
/// source graph's (the visitor replays `g.neighbors(v)` verbatim).
class CompressedCSR {
 public:
  CompressedCSR() = default;

  /// Encode `g`'s adjacency.  Parallel and deterministic: the buffer is
  /// byte-identical at every thread count.
  static CompressedCSR from_graph(const CSRGraph& g);

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] eid_t num_arcs() const { return arcs_; }
  [[nodiscard]] bool directed() const { return directed_; }

  /// Compressed adjacency bytes (the uncompressed equivalent is
  /// num_arcs() * sizeof(vid_t)).
  [[nodiscard]] std::size_t byte_size() const { return bytes_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }
  [[nodiscard]] std::span<const std::uint64_t> byte_offsets() const {
    return offsets_;
  }

  [[nodiscard]] eid_t degree(vid_t v) const {
    const std::uint8_t* p = block(v);
    return static_cast<eid_t>(detail::varint_read(p));
  }

  /// Visit v's neighbors in stored (ascending) order while `f` returns true
  /// — the AdjacencyView visitor (snap/graph/adjacency.hpp).
  template <typename F>
  void for_each_neighbor_while(vid_t v, F&& f) const {
    const std::uint8_t* p = block(v);
    const std::uint64_t deg = detail::varint_read(p);
    std::int64_t prev = v;
    for (std::uint64_t i = 0; i < deg; ++i) {
      prev += detail::zigzag_decode(detail::varint_read(p));
      if (!f(static_cast<vid_t>(prev))) return;
    }
  }

 private:
  [[nodiscard]] const std::uint8_t* block(vid_t v) const {
    SNAP_DCHECK(v >= 0 && v < n_, "CompressedCSR: vertex ", v,
                " out of [0, ", n_, ")");
    return bytes_.data() + offsets_[static_cast<std::size_t>(v)];
  }

  vid_t n_ = 0;
  eid_t arcs_ = 0;
  bool directed_ = false;
  std::vector<std::uint64_t> offsets_;  ///< n+1 byte offsets into bytes_
  std::vector<std::uint8_t> bytes_;
};

}  // namespace snap
