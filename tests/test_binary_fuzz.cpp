// Seeded mutation fuzzer for the binary graph reader.  Six SNAPB2 seed files
// (karate and its weighted twin, a directed R-MAT 8, a path, n = 0 and an
// edgeless n = 5) take 20,000 mutations: byte flips with the checksum left
// stale or re-sealed, edits of the header's n, m, payload size, flags and
// version, the magic rewritten as the legacy SNAPB1's (so the legacy reader
// parses the bytes), truncations and extensions.  Every read must either
// throw std::runtime_error or return a graph whose offsets, targets, arc
// edge ids and endpoints are in range and on which BFS, connected
// components and the degree kernels run.  Each verdict must be reached at
// least once, by SNAPB2 and by SNAPB1 reads alike, so the mutations keep
// reaching every check of both readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "snap/centrality/degree.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

constexpr int kMutations = 20000;
constexpr std::size_t kMagicBytes = 8;
constexpr char kMagicV1[kMagicBytes] = {'S', 'N', 'A', 'P', 'B', '1', '\n',
                                        '\0'};
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kChecksumAt = 40;

/// Header fields a mutation edits: offset and width in bytes.
struct Field {
  std::size_t at;
  std::size_t width;
};
constexpr std::array<Field, 5> kFields = {{{8, 4},    // version
                                           {12, 4},   // flags
                                           {16, 8},   // n
                                           {24, 8},   // m
                                           {32, 8}}};  // payload bytes

enum class Verdict {
  kChecksum,
  kHeader,
  kTruncated,
  kRange,
  kAccepted,
};

const char* name(Verdict v) {
  switch (v) {
    case Verdict::kChecksum: return "checksum mismatch";
    case Verdict::kHeader: return "header disagreement";
    case Verdict::kTruncated: return "truncation";
    case Verdict::kRange: return "range error";
    case Verdict::kAccepted: return "accepted";
  }
  return "?";
}

/// The verdict a rejection message names; fails the test on a message no
/// class covers, so every way the reader refuses a file is accounted for.
Verdict classify(std::string_view what) {
  const auto has = [&](std::string_view s) {
    return what.find(s) != std::string_view::npos;
  };
  if (has("checksum")) return Verdict::kChecksum;
  if (has("truncated")) return Verdict::kTruncated;
  if (has("payload size") || has("version") || has("bad header") ||
      has("unrecognized magic"))
    return Verdict::kHeader;
  if (has("offsets array") || has("adjacency array") ||
      has("arc edge id array") || has("edge array") ||
      has("invalid CSR image"))
    return Verdict::kRange;
  ADD_FAILURE() << "unclassified rejection: " << what;
  return Verdict::kRange;
}

std::string file_bytes(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_file(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recompute the header's checksum over everything after the header.
void reseal(std::string& bytes) {
  if (bytes.size() < kHeaderBytes) return;
  io::Fnv1a sum;
  sum.update(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  const std::uint64_t h = sum.hash();
  std::memcpy(bytes.data() + kChecksumAt, &h, sizeof(h));
}

/// A value for a header field: near its current one, a boundary, or noise.
std::uint64_t edited(std::uint64_t now, SplitMix64& rng) {
  switch (rng.next_bounded(7)) {
    case 0: return now + 1;
    case 1: return now - 1;
    case 2: return 0;
    case 3: return ~std::uint64_t{0};  // -1
    case 4: return std::uint64_t{1} << (rng.next_bounded(63) + 1);
    case 5: return now ^ (std::uint64_t{1} << rng.next_bounded(64));
    default: return rng();
  }
}

std::string mutate(std::string bytes, SplitMix64& rng) {
  switch (rng.next_bounded(6)) {
    case 0:
    case 1: {  // byte flips, the checksum stale (0) or re-sealed (1)
      const bool sealed = rng.next_bounded(2) == 1;
      const auto flips = 1 + rng.next_bounded(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        // Mostly in the payload, where the arrays are.
        const std::size_t lo =
            rng.next_bounded(8) == 0 || bytes.size() <= kHeaderBytes
                ? 0
                : kHeaderBytes;
        const auto at = lo + rng.next_bounded(bytes.size() - lo);
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1 + rng.next_bounded(255)));
      }
      if (sealed) reseal(bytes);
      break;
    }
    case 2: {  // one header field
      const Field& f = kFields[rng.next_bounded(kFields.size())];
      std::uint64_t v = 0;
      std::memcpy(&v, bytes.data() + f.at, f.width);
      v = edited(v, rng);
      std::memcpy(bytes.data() + f.at, &v, f.width);
      break;
    }
    case 3:  // truncation
      bytes.resize(rng.next_bounded(bytes.size()));
      break;
    case 4:  // the legacy magic: SNAPB1's n is SNAPB2's version and flags
             // words, past the legacy cap, unless set small here, and its
             // edge records are whatever bytes follow its 32-byte header
      std::memcpy(bytes.data(), kMagicV1, kMagicBytes);
      if (rng.next_bounded(2) == 0) {
        const auto n = static_cast<std::int64_t>(1 + rng.next_bounded(4096));
        std::memcpy(bytes.data() + kMagicBytes, &n, sizeof(n));
      }
      break;
    default: {  // extension, sometimes re-sealed over the new bytes
      const auto extra = 1 + rng.next_bounded(64);
      for (std::uint64_t i = 0; i < extra; ++i)
        bytes.push_back(static_cast<char>(rng.next_bounded(256)));
      if (rng.next_bounded(2) == 0) reseal(bytes);
      break;
    }
  }
  return bytes;
}

/// An accepted graph must be safe to walk: every index in range, and the
/// kernels run to completion with answers of the right shape.
void expect_walkable(const CSRGraph& g) {
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const auto offsets = g.row_offsets();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(offsets.front(), 0);
  ASSERT_EQ(offsets.back(), g.num_arcs());
  ASSERT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
  for (const vid_t v : g.adjacency()) ASSERT_TRUE(v >= 0 && v < n) << v;
  for (const eid_t e : g.arc_edge_id_array())
    ASSERT_TRUE(e >= 0 && e < m) << e;
  for (const EdgeEndpoints& e : g.endpoints())
    ASSERT_TRUE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n);

  if (n > 0) {
    const BFSResult r = bfs(g, 0);
    ASSERT_EQ(r.dist.size(), static_cast<std::size_t>(n));
    ASSERT_GE(r.num_visited, 1);
    ASSERT_LE(r.num_visited, n);
  }
  const Components c = connected_components(g);
  ASSERT_EQ(c.label.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(degree_centrality(g).size(), static_cast<std::size_t>(n));
  ASSERT_EQ(in_degrees(g).size(), static_cast<std::size_t>(n));
}

TEST(BinaryFuzz, EveryMutationIsRejectedOrWalkable) {
  std::vector<CSRGraph> seeds;
  seeds.push_back(gen::karate_club());
  {
    EdgeList edges;
    for (const Edge& e : seeds.front().edges()) edges.push_back(e);
    for (std::size_t e = 0; e < edges.size(); ++e)
      edges[e].w = 0.5 * static_cast<double>(1 + e % 4);
    seeds.push_back(CSRGraph::from_edges(34, edges, false));
  }
  {
    gen::RmatParams p;
    p.scale = 8;
    p.edge_factor = 4;
    p.directed = true;
    p.seed = 8;
    seeds.push_back(gen::rmat(p));
  }
  seeds.push_back(gen::path_graph(5));
  seeds.push_back(CSRGraph::from_edges(0, {}, false));
  seeds.push_back(CSRGraph::from_edges(5, {}, false));
  ASSERT_TRUE(seeds[1].weighted());
  ASSERT_TRUE(seeds[2].directed());

  const std::string path =
      (std::filesystem::temp_directory_path() / "snap_binary_fuzz.snapb")
          .string();
  std::vector<std::string> seed_bytes;
  for (const CSRGraph& g : seeds) {
    io::write_binary(g, path);
    seed_bytes.push_back(file_bytes(path));
    // Unmutated, every seed reads back.
    EXPECT_EQ(io::read_binary(path).num_edges(), g.num_edges());
  }

  SplitMix64 rng(20260);
  std::map<Verdict, int> verdicts;
  std::map<Verdict, int> v1_verdicts;  // reads of a SNAPB1 magic
  for (int i = 0; i < kMutations; ++i) {
    const std::size_t s = rng.next_bounded(seed_bytes.size());
    const std::string bytes = mutate(seed_bytes[s], rng);
    put_file(path, bytes);
    const bool legacy =
        bytes.size() >= kMagicBytes &&
        std::memcmp(bytes.data(), kMagicV1, kMagicBytes) == 0;
    Verdict verdict = Verdict::kAccepted;
    try {
      const CSRGraph g = io::read_binary(path);
      expect_walkable(g);
    } catch (const std::runtime_error& e) {
      verdict = classify(e.what());
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " of seed " << s
                    << " threw a non-runtime_error: " << e.what();
    }
    ++(legacy ? v1_verdicts : verdicts)[verdict];
    if (::testing::Test::HasFailure())
      FAIL() << "mutation " << i << " of seed " << s;
  }
  std::filesystem::remove(path);

  for (const Verdict v : {Verdict::kChecksum, Verdict::kHeader,
                          Verdict::kTruncated, Verdict::kRange,
                          Verdict::kAccepted}) {
    EXPECT_GT(verdicts[v], 0) << "no SNAPB2 mutation reached: " << name(v);
    if (v != Verdict::kChecksum) {  // SNAPB1 has no checksum
      EXPECT_GT(v1_verdicts[v], 0)
          << "no SNAPB1 mutation reached: " << name(v);
    }
    std::printf("%-20s %6d SNAPB2 %6d SNAPB1\n", name(v), verdicts[v],
                v1_verdicts[v]);
  }
}

}  // namespace
}  // namespace snap
