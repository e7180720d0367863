#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "snap/graph/csr_graph.hpp"

namespace snap::io {

/// Current binary snapshot format version ("SNAPB2").
inline constexpr std::uint32_t kBinaryFormatVersion = 2;

/// The SNAPB2 payload checksum: 64-bit FNV-1a over the payload bytes, fed
/// in pieces (one per array).  The digest is the byte-at-a-time FNV-1a's;
/// `update` folds the zero bytes of each 8-byte word into one
/// multiplication, which is what makes verifying a CSR payload cheap.
class Fnv1a {
 public:
  void update(const void* data, std::size_t len);
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Write `g` in SNAP's binary snapshot format, version 2: a fixed header
/// (magic "SNAPB2\n", format version, flags, n, m, payload byte count and an
/// FNV-1a checksum of the payload) followed by the raw CSR arrays —
/// offsets, adjacency, arc edge ids, per-arc weights (weighted graphs only)
/// and the logical edge list.  Storing the CSR image directly makes a load
/// O(read): `read_binary` adopts the arrays via `CSRGraph::from_parts`
/// instead of re-running the sort/dedupe/placement build pipeline, which is
/// what lets the multi-GB bench corpus instances load in seconds.
void write_binary(const CSRGraph& g, const std::string& path);

/// Read a graph written by `write_binary`.  Understands both the current
/// "SNAPB2" CSR-array format (header checksum verified; corrupt or
/// truncated files are rejected with a clear error) and the legacy
/// "SNAPB1" edge-list format (no checksum; n at most 2^32, endpoints
/// range-checked, the CSR rebuilt via `from_edges`).  A file either format
/// refuses throws std::runtime_error.
CSRGraph read_binary(const std::string& path);

}  // namespace snap::io
