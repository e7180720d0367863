// CompressedCSR coverage: the varint/zigzag codec round-trips adversarial
// values, and — the load-bearing guarantee — decoding replays the source
// graph's adjacency value for value on every corpus generator family, at
// every thread count the encode might have run under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "generator_corpus.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/frontier.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap {
namespace {

using test::generator_corpus;

// ------------------------------------------------------------ codec level

TEST(VarintCodec, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 0x7f,
                                 0x80,
                                 0x3fff,
                                 0x4000,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 (1ULL << 63) - 1,
                                 1ULL << 63,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t u : cases) {
    std::uint8_t buf[10];
    std::uint8_t* end = detail::varint_write(buf, u);
    ASSERT_EQ(static_cast<std::size_t>(end - buf), detail::varint_length(u))
        << u;
    const std::uint8_t* p = buf;
    EXPECT_EQ(detail::varint_read(p), u);
    EXPECT_EQ(p, end) << "read did not consume exactly the written bytes";
  }
}

TEST(VarintCodec, FuzzRoundTrip) {
  SplitMix64 rng(12345);
  std::uint8_t buf[10];
  for (int i = 0; i < 200000; ++i) {
    // Bias towards small values and values near power-of-two boundaries —
    // the distributions deltas of sorted adjacency actually produce.
    std::uint64_t u = rng();
    const int shift = static_cast<int>(rng.next_bounded(64));
    u >>= shift;
    std::uint8_t* end = detail::varint_write(buf, u);
    const std::uint8_t* p = buf;
    ASSERT_EQ(detail::varint_read(p), u);
    ASSERT_EQ(p, end);
  }
}

TEST(VarintCodec, ZigzagRoundTripsSignedDeltas) {
  const std::int64_t cases[] = {0,
                                1,
                                -1,
                                63,
                                -64,
                                64,
                                -65,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t x : cases) {
    EXPECT_EQ(detail::zigzag_decode(detail::zigzag_encode(x)), x) << x;
    // Small magnitudes must stay small: that is the whole point.
    if (x >= -64 && x < 64) {
      EXPECT_EQ(detail::varint_length(detail::zigzag_encode(x)), 1u) << x;
    }
  }
  SplitMix64 rng(777);
  for (int i = 0; i < 100000; ++i) {
    const auto x = static_cast<std::int64_t>(rng());
    ASSERT_EQ(detail::zigzag_decode(detail::zigzag_encode(x)), x);
  }
}

// ------------------------------------------------------ graph-level decode

void expect_decodes_identically(const CSRGraph& g, const std::string& what) {
  const CompressedCSR c = CompressedCSR::from_graph(g);
  ASSERT_EQ(c.num_vertices(), g.num_vertices()) << what;
  ASSERT_EQ(c.num_arcs(), g.num_arcs()) << what;
  std::vector<vid_t> decoded;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto expected = g.neighbors(v);
    ASSERT_EQ(c.degree(v), static_cast<eid_t>(expected.size()))
        << what << " vertex " << v;
    // The visitor replays the CSR row value for value, in order.
    decoded.clear();
    c.for_each_neighbor_while(v, [&](vid_t w) {
      decoded.push_back(w);
      return true;
    });
    ASSERT_EQ(decoded.size(), expected.size()) << what << " vertex " << v;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(decoded[i], expected[i])
          << what << " vertex " << v << " slot " << i;
    // ...and stops at the first false: a prefix, never a skipped value.
    const std::size_t stop = expected.size() / 2;
    decoded.clear();
    c.for_each_neighbor_while(v, [&](vid_t w) {
      decoded.push_back(w);
      return decoded.size() <= stop;
    });
    ASSERT_EQ(decoded.size(), std::min(expected.size(), stop + 1))
        << what << " vertex " << v;
    for (std::size_t i = 0; i < decoded.size(); ++i)
      ASSERT_EQ(decoded[i], expected[i]) << what << " vertex " << v;
  }
}

TEST(CompressedCSR, DecodesIdenticallyOnAllGeneratorsAndThreadCounts) {
  for (const auto& [name, g] : generator_corpus()) {
    for (const int t : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(t);
      expect_decodes_identically(g, name + " @t=" + std::to_string(t));
    }
  }
}

TEST(CompressedCSR, EncodeIsByteIdenticalAcrossThreadCounts) {
  gen::RmatParams rp;
  rp.scale = 12;
  rp.edge_factor = 8;
  rp.seed = 13;
  const CSRGraph g = gen::rmat(rp);
  std::vector<std::uint8_t> reference;
  for (const int t : {1, 2, 4, 8}) {
    parallel::ThreadScope scope(t);
    const CompressedCSR c = CompressedCSR::from_graph(g);
    const std::vector<std::uint8_t> bytes(c.bytes().begin(),
                                          c.bytes().end());
    if (t == 1)
      reference = bytes;
    else
      ASSERT_EQ(bytes, reference) << "threads=" << t;
  }
}

TEST(CompressedCSR, CompressesSortedSmallWorldAdjacency) {
  gen::RmatParams rp;
  rp.scale = 12;
  rp.edge_factor = 8;
  rp.seed = 17;
  const CSRGraph g = gen::rmat(rp);
  const CompressedCSR c = CompressedCSR::from_graph(g);
  // Sorted neighbor lists delta-encode well below the flat 8 bytes/arc.
  EXPECT_LT(c.byte_size(),
            static_cast<std::size_t>(g.num_arcs()) * sizeof(vid_t) / 2);
}

HybridBFSOptions forced_pull() {
  HybridBFSOptions o;
  o.alpha = 1e18;
  o.beta = 1e18;
  o.min_pull_arcs = 0;
  return o;
}

/// The engine on the compressed layout from `source`, against bfs_serial on
/// the source graph: equal dist / num_visited / num_levels, a valid parent
/// tree (every parent is an in-neighbor one level up), and a trace whose
/// discoveries add up.  bfs_compressed is the default-knob instantiation.
void expect_matches_serial(const CSRGraph& g, const CompressedCSR& c,
                           vid_t source, const HybridBFSOptions& opts,
                           const std::string& what) {
  const BFSResult ref = bfs_serial(g, source);
  ASSERT_EQ(bfs_compressed(c, source).dist, ref.dist) << what;
  std::vector<BfsLevelStats> trace;
  const BFSResult got = BfsEngine().run(c, source, opts, &trace);
  ASSERT_EQ(got.dist, ref.dist) << what;
  EXPECT_EQ(got.num_visited, ref.num_visited) << what;
  EXPECT_EQ(got.num_levels, ref.num_levels) << what;
  if (g.num_vertices() == 0) return;
  EXPECT_EQ(got.parent[static_cast<std::size_t>(source)], source) << what;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (got.dist[sv] < 0) {
      ASSERT_EQ(got.parent[sv], kInvalidVid) << what << " vertex " << v;
      continue;
    }
    if (v == source) continue;
    const vid_t p = got.parent[sv];
    ASSERT_NE(p, kInvalidVid) << what << " vertex " << v;
    ASSERT_EQ(got.dist[static_cast<std::size_t>(p)], got.dist[sv] - 1)
        << what << " vertex " << v;
    ASSERT_TRUE(g.has_edge(p, v)) << what << " vertex " << v;
  }
  vid_t discovered = 1;  // the source
  for (const auto& lv : trace) discovered += lv.discovered;
  EXPECT_EQ(discovered, got.num_visited) << what;
}

TEST(CompressedCSR, BfsMatchesSerialReference) {
  for (const auto& [name, g] : generator_corpus()) {
    const CompressedCSR c = CompressedCSR::from_graph(g);
    const vid_t n = g.num_vertices();
    for (const int t : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(t);
      for (const auto& [knobs, opts] :
           {std::pair<std::string, HybridBFSOptions>{"default", {}},
            {"forced-pull", forced_pull()}}) {
        for (const vid_t s : {vid_t{0}, n / 2}) {
          expect_matches_serial(g, c, s, opts,
                                name + " " + knobs + " source " +
                                    std::to_string(s) +
                                    " threads=" + std::to_string(t));
        }
      }
    }
  }
}

TEST(CompressedCSR, BfsOnDirectedGraphsFollowsOutArcs) {
  // A compressed row is out-adjacency; pulling over it on a directed graph
  // would treat out-arcs as in-arcs.  Two shapes: a directed R-MAT, and a
  // fan whose second layer (400+i -> i) is reachable only against the
  // arcs, so a pull level would wrongly visit all 801 vertices.
  gen::RmatParams rp;
  rp.scale = 12;
  rp.directed = true;
  rp.seed = 5;
  EdgeList fan;
  for (vid_t i = 1; i <= 400; ++i) {
    fan.push_back({0, i, 1.0});
    fan.push_back({400 + i, i, 1.0});
  }
  for (const auto& [name, g] :
       {std::pair<std::string, CSRGraph>{"rmat12_directed", gen::rmat(rp)},
        {"fan", CSRGraph::from_edges(801, fan, true)}}) {
    ASSERT_TRUE(g.directed());
    const CompressedCSR c = CompressedCSR::from_graph(g);
    const BFSResult ref = bfs_serial(g, 0);
    for (const int t : {1, 2, 4, 8}) {
      parallel::ThreadScope scope(t);
      for (const auto& opts : {HybridBFSOptions{}, forced_pull()}) {
        const std::string what = name + " threads=" + std::to_string(t);
        expect_matches_serial(g, c, 0, opts, what);
        // The same engine on the flat layout, at the team width and at 1.
        BFSResult flat = bfs_hybrid(g, 0, opts);
        ASSERT_EQ(flat.dist, ref.dist) << what << " csr";
        EXPECT_EQ(flat.num_visited, ref.num_visited) << what << " csr";
        BfsEngine().run_into(g, 0, 1, opts, flat);
        ASSERT_EQ(flat.dist, ref.dist) << what << " csr width 1";
        EXPECT_EQ(flat.num_levels, ref.num_levels) << what << " csr width 1";
      }
    }
  }
}

}  // namespace
}  // namespace snap
