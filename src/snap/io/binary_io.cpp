#include "snap/io/binary_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"

namespace snap::io {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// kFnvPrimePowers[k] = P^k mod 2^64: the steps of k zero bytes.
constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

constexpr char kMagicV1[8] = {'S', 'N', 'A', 'P', 'B', '1', '\n', '\0'};
constexpr std::int64_t kMaxV1Vertices = std::int64_t{1} << 32;
constexpr char kMagicV2[8] = {'S', 'N', 'A', 'P', 'B', '2', '\n', '\0'};

// Legacy (v1) layout: 32-byte header + m RawEdge records.
struct HeaderV1 {
  char magic[8];
  std::int64_t n;
  std::int64_t m;
  std::uint8_t directed;
  std::uint8_t pad[7];
};
static_assert(sizeof(HeaderV1) == 32);

struct RawEdge {
  std::int64_t u, v;
  double w;
};
static_assert(sizeof(RawEdge) == 24);
// An unweighted payload's edge records are read into EdgeEndpoints as is.
static_assert(sizeof(EdgeEndpoints) == 2 * sizeof(std::int64_t));

// Flag bits of HeaderV2::flags.
constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::uint32_t kFlagWeighted = 1u << 1;
constexpr std::uint32_t kFlagSorted = 1u << 2;

/// v2 layout: this header, then the payload arrays in order — offsets
/// (n+1 x i64), adjacency (arcs x i64), arc edge ids (arcs x i64), arc
/// weights (arcs x f64, weighted only), logical edges (m x RawEdge when
/// weighted, m x {i64 u, i64 v} otherwise).  `checksum` is FNV-1a over the
/// payload bytes in that exact order.
struct HeaderV2 {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::int64_t n;
  std::int64_t m;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(HeaderV2) == 48);

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("binary graph: " + what + ": " + path);
}

void write_all(std::ofstream& out, const void* data, std::size_t len) {
  if (len == 0) return;
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len));
}

void read_all(std::ifstream& in, void* data, std::size_t len,
              const std::string& path) {
  if (len == 0) return;
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
  if (!in) fail("truncated file", path);
}

/// Bytes between the read position and the end of the file.
std::uint64_t remaining_bytes(std::ifstream& in) {
  const auto here = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}

CSRGraph read_binary_v1(std::ifstream& in, const HeaderV1& h,
                        const std::string& path) {
  if (h.n < 0 || h.m < 0) fail("bad header (negative n or m)", path);
  // SNAPB1 stores no per-vertex array, so nothing in the file bounds n:
  // past 2^32 vertices it is refused rather than sized for, and a graph
  // that still cannot be allocated is a refused file, like any other.
  if (h.n > kMaxV1Vertices)
    fail("bad header (n = " + std::to_string(h.n) +
             " is past the SNAPB1 limit of 2^32 vertices)",
         path);
  if (static_cast<std::uint64_t>(h.m) > remaining_bytes(in) / sizeof(RawEdge))
    fail("truncated file (header promises more edges than it holds)", path);
  EdgeList edges(static_cast<std::size_t>(h.m));
  for (auto& e : edges) {
    RawEdge r{};
    read_all(in, &r, sizeof(r), path);
    if (r.u < 0 || r.u >= h.n || r.v < 0 || r.v >= h.n)
      fail("edge array holds an endpoint outside [0, n)", path);
    e = Edge{r.u, r.v, r.w};
  }
  try {
    return CSRGraph::from_edges(h.n, edges, h.directed != 0);
  } catch (const std::bad_alloc&) {
    fail("bad header (cannot allocate a graph of n = " + std::to_string(h.n) +
             " vertices)",
         path);
  }
}

CSRGraph read_binary_v2(std::ifstream& in, const HeaderV2& h,
                        const std::string& path) {
  if (h.version != kBinaryFormatVersion)
    fail("unsupported format version " + std::to_string(h.version) +
             " (this build reads version " +
             std::to_string(kBinaryFormatVersion) + ")",
         path);
  if (h.n < 0 || h.m < 0) fail("bad header (negative n or m)", path);
  const bool directed = (h.flags & kFlagDirected) != 0;
  const bool weighted = (h.flags & kFlagWeighted) != 0;
  const bool sorted = (h.flags & kFlagSorted) != 0;
  // The payload the header implies, checked against the header's own count
  // and the file size before anything is allocated: a 48-byte file that
  // claims n = 2^40 is refused, not sized for.
  using Wide = unsigned __int128;
  const Wide wide_arcs = Wide(h.m) * (directed ? 1 : 2);
  const Wide implied =
      (Wide(h.n) + 1) * sizeof(eid_t) +
      wide_arcs * (sizeof(vid_t) + sizeof(eid_t) +
                   (weighted ? sizeof(weight_t) : 0)) +
      Wide(h.m) * (weighted ? sizeof(RawEdge) : 2 * sizeof(std::int64_t));
  if (implied != h.payload_bytes)
    fail("header payload size " + std::to_string(h.payload_bytes) +
             " disagrees with its n and m",
         path);
  const std::uint64_t held = remaining_bytes(in);
  if (h.payload_bytes > held)
    fail("truncated file (header promises " +
             std::to_string(h.payload_bytes) + " payload bytes, file holds " +
             std::to_string(held) + ")",
         path);
  const auto n = static_cast<std::size_t>(h.n);
  const auto m = static_cast<std::size_t>(h.m);
  const std::size_t arcs = directed ? m : 2 * m;

  // Each array is read straight into the one the graph adopts; only a
  // weighted graph's 24-byte edge records are split into endpoints and
  // weights on the way in.
  std::vector<eid_t> offsets(n + 1);
  std::vector<vid_t> adj(arcs);
  std::vector<eid_t> arc_edge_ids(arcs);
  std::vector<EdgeEndpoints> ends(m);
  std::vector<weight_t> weights;
  std::vector<weight_t> edge_weights;

  Fnv1a sum;
  auto consume = [&](void* data, std::size_t len) {
    read_all(in, data, len, path);
    sum.update(data, len);
  };

  consume(offsets.data(), offsets.size() * sizeof(eid_t));
  consume(adj.data(), adj.size() * sizeof(vid_t));
  consume(arc_edge_ids.data(), arc_edge_ids.size() * sizeof(eid_t));
  if (weighted) {
    weights.resize(arcs);
    consume(weights.data(), weights.size() * sizeof(weight_t));
    std::vector<RawEdge> raw(m);
    consume(raw.data(), raw.size() * sizeof(RawEdge));
    edge_weights.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
      ends[e] = {raw[e].u, raw[e].v};
      edge_weights[e] = raw[e].w;
    }
  } else {
    consume(ends.data(), ends.size() * sizeof(EdgeEndpoints));
  }
  if (sum.hash() != h.checksum)
    fail("FNV-1a checksum mismatch (file corrupt)", path);

  // A checksum proves integrity, not validity.  Every index from_parts and
  // the kernels will follow is range-checked here, always, in O(n + m).
  if (offsets.front() != 0 || offsets.back() != static_cast<eid_t>(arcs))
    fail("offsets array does not cover the adjacency", path);
  if (!std::is_sorted(offsets.begin(), offsets.end()))
    fail("offsets array is not non-decreasing", path);
  const auto outside = [](std::int64_t x, std::int64_t end) {
    return x < 0 || x >= end;
  };
  if (std::any_of(adj.begin(), adj.end(),
                  [&](vid_t v) { return outside(v, h.n); }))
    fail("adjacency array holds a target outside [0, n)", path);
  if (std::any_of(arc_edge_ids.begin(), arc_edge_ids.end(),
                  [&](eid_t e) { return outside(e, h.m); }))
    fail("arc edge id array holds an id outside [0, m)", path);
  if (std::any_of(ends.begin(), ends.end(), [&](const EdgeEndpoints& e) {
        return outside(e.u, h.n) || outside(e.v, h.n);
      }))
    fail("edge array holds an endpoint outside [0, n)", path);

  CSRGraph g = CSRGraph::from_parts(
      h.n, h.m, directed, weighted, sorted, std::move(offsets), std::move(adj),
      std::move(arc_edge_ids), std::move(ends), std::move(weights),
      std::move(edge_weights));
  // With the structural validators compiled in, a file whose indices are in
  // range but whose arrays disagree (an arc naming the wrong edge, a missing
  // mirror arc, an unsorted row flagged sorted) is refused: it is outside
  // input, so it gets an error, not the validators' abort.
  if constexpr (debug::kCheckLevel >= 2) {
    const debug::ValidationReport report = debug::validate(g);
    if (!report.ok())
      fail("invalid CSR image (" + report.errors.front() + ")", path);
  }
  return g;
}

}  // namespace

void Fnv1a::update(const void* data, std::size_t len) {
  // A zero byte's step (h ^ 0) * P is a bare multiplication, and most words
  // of a CSR payload are small non-negative integers whose high bytes are
  // zero.  So each 8-byte word takes the xor-multiply step for its bytes up
  // to the last non-zero one in memory order, then one multiplication by
  // P^k for the k zero bytes after it; a tail shorter than a word goes byte
  // by byte.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash_;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, sizeof(w));
    unsigned live = 0;  // bytes up to the last non-zero one, in memory order
    if constexpr (std::endian::native == std::endian::little)
      live = (static_cast<unsigned>(std::bit_width(w)) + 7) / 8;
    else
      live = 8 - static_cast<unsigned>(std::countr_zero(w)) / 8;
    for (unsigned b = 0; b < live; ++b) h = (h ^ p[i + b]) * kFnvPrime;
    h *= kFnvPrimePowers[8 - live];
  }
  for (; i < len; ++i) h = (h ^ p[i]) * kFnvPrime;
  hash_ = h;
}

void write_binary(const CSRGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for writing", path);

  const auto offsets = g.row_offsets();
  const auto adj = g.adjacency();
  const auto ids = g.arc_edge_id_array();
  const auto weights = g.arc_weights();
  const auto ends = g.endpoints();
  const auto m = static_cast<std::size_t>(g.num_edges());

  // An unweighted graph's endpoints are the payload's {u, v} records as
  // stored; a weighted graph's edges are flattened into 24-byte records.
  std::vector<RawEdge> raw_weighted;
  if (g.weighted()) {
    const auto edges = g.edges();
    raw_weighted.resize(m);
    for (std::size_t e = 0; e < m; ++e)
      raw_weighted[e] = RawEdge{edges[e].u, edges[e].v, edges[e].w};
  }

  Fnv1a sum;
  std::uint64_t payload = 0;
  auto tally = [&](const void* data, std::size_t len) {
    sum.update(data, len);
    payload += len;
  };
  tally(offsets.data(), offsets.size() * sizeof(eid_t));
  tally(adj.data(), adj.size() * sizeof(vid_t));
  tally(ids.data(), ids.size() * sizeof(eid_t));
  if (g.weighted()) {
    tally(weights.data(), weights.size() * sizeof(weight_t));
    tally(raw_weighted.data(), raw_weighted.size() * sizeof(RawEdge));
  } else {
    tally(ends.data(), ends.size_bytes());
  }

  HeaderV2 h{};
  std::memcpy(h.magic, kMagicV2, sizeof(kMagicV2));
  h.version = kBinaryFormatVersion;
  h.flags = (g.directed() ? kFlagDirected : 0u) |
            (g.weighted() ? kFlagWeighted : 0u) |
            (g.adjacency_sorted() ? kFlagSorted : 0u);
  h.n = g.num_vertices();
  h.m = g.num_edges();
  h.payload_bytes = payload;
  h.checksum = sum.hash();

  write_all(out, &h, sizeof(h));
  write_all(out, offsets.data(), offsets.size() * sizeof(eid_t));
  write_all(out, adj.data(), adj.size() * sizeof(vid_t));
  write_all(out, ids.data(), ids.size() * sizeof(eid_t));
  if (g.weighted()) {
    write_all(out, weights.data(), weights.size() * sizeof(weight_t));
    write_all(out, raw_weighted.data(),
              raw_weighted.size() * sizeof(RawEdge));
  } else {
    write_all(out, ends.data(), ends.size_bytes());
  }
  if (!out) fail("write failed", path);
}

CSRGraph read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open", path);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in) fail("truncated header", path);

  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    HeaderV1 h{};
    std::memcpy(h.magic, magic, sizeof(magic));
    read_all(in, reinterpret_cast<char*>(&h) + sizeof(magic),
             sizeof(h) - sizeof(magic), path);
    return read_binary_v1(in, h, path);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    HeaderV2 h{};
    std::memcpy(h.magic, magic, sizeof(magic));
    read_all(in, reinterpret_cast<char*>(&h) + sizeof(magic),
             sizeof(h) - sizeof(magic), path);
    return read_binary_v2(in, h, path);
  }
  fail("unrecognized magic (not a SNAP binary graph)", path);
}

}  // namespace snap::io
