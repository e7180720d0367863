#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/io/dimacs_io.hpp"
#include "snap/io/edge_list_io.hpp"
#include "snap/io/metis_io.hpp"
#include "snap/util/parallel.hpp"

namespace snap {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / ("snap_io_" + name))
        .string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::string track(const std::string& p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

void expect_same_graph(const CSRGraph& a, const CSRGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (const Edge& e : a.edges()) {
    EXPECT_TRUE(b.has_edge(e.u, e.v)) << e.u << "-" << e.v;
  }
}

TEST_F(IoTest, EdgeListRoundtrip) {
  const auto g = gen::karate_club();
  const auto p = track(path("karate.txt"));
  io::write_edge_list(g, p);
  const auto back = io::read_edge_list_graph(p, /*directed=*/false);
  expect_same_graph(g, back);
}

TEST_F(IoTest, EdgeListParsesCommentsAndWeights) {
  const auto p = track(path("mini.txt"));
  {
    std::ofstream out(p);
    out << "# a comment\n# nodes: 6\n0 1 2.5\n1 2\n";
  }
  const auto parsed = io::read_edge_list(p);
  EXPECT_EQ(parsed.n, 6);
  ASSERT_EQ(parsed.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.edges[0].w, 2.5);
  EXPECT_DOUBLE_EQ(parsed.edges[1].w, 1.0);
}

TEST_F(IoTest, EdgeListSkipsPercentComments) {
  const auto p = track(path("konect.txt"));
  {
    std::ofstream out(p);
    out << "% KONECT header\n%\n0 1\n  % indented comment\n1 2\n";
  }
  const auto parsed = io::read_edge_list(p);
  ASSERT_EQ(parsed.edges.size(), 2u);
  EXPECT_EQ(parsed.n, 3);
}

TEST_F(IoTest, CommentsAcrossChunkBoundariesParseIdentically) {
  // Build a file comfortably above the parallel-parse cutoff (64 KiB) with
  // '#' and '%' comment lines and blanks sprinkled densely, so for every
  // thread count some chunk boundary lands inside or right next to a comment.
  const auto p = track(path("chunky.txt"));
  eid_t expected_edges = 0;
  {
    std::ofstream out(p);
    out << "# nodes: 5000\n";
    for (int i = 0; i < 12000; ++i) {
      if (i % 5 == 0) out << "# comment line " << i << " with some padding\n";
      if (i % 7 == 0) out << "% konect-style comment " << i << "\n";
      if (i % 11 == 0) out << "\n";
      out << i % 4000 << ' ' << (i + 1) % 4000 << '\n';
      ++expected_edges;
    }
  }
  ASSERT_GT(std::filesystem::file_size(p), 65536u) << "below parallel cutoff";

  parallel::ThreadScope serial_scope(1);
  const auto ref = io::read_edge_list(p);
  ASSERT_EQ(ref.edges.size(), static_cast<std::size_t>(expected_edges));
  EXPECT_EQ(ref.n, 5000);
  for (int t : {2, 4, 8}) {
    parallel::ThreadScope scope(t);
    const auto got = io::read_edge_list(p);
    ASSERT_EQ(got.n, ref.n) << "threads=" << t;
    ASSERT_EQ(got.edges.size(), ref.edges.size()) << "threads=" << t;
    for (std::size_t i = 0; i < ref.edges.size(); ++i) {
      ASSERT_EQ(got.edges[i].u, ref.edges[i].u) << "i=" << i;
      ASSERT_EQ(got.edges[i].v, ref.edges[i].v) << "i=" << i;
    }
  }
}

TEST_F(IoTest, EdgeListMissingFileThrows) {
  EXPECT_THROW(io::read_edge_list("/nonexistent/file.txt"),
               std::runtime_error);
}

TEST_F(IoTest, EdgeListNoTrailingNewlineAndCrLf) {
  const auto p = track(path("crlf.txt"));
  {
    std::ofstream out(p, std::ios::binary);
    out << "0 1 2.0\r\n1 2\r\n2 3 0.5";  // CRLF endings, no final newline
  }
  const auto parsed = io::read_edge_list(p);
  ASSERT_EQ(parsed.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.edges[0].w, 2.0);
  EXPECT_DOUBLE_EQ(parsed.edges[1].w, 1.0);
  EXPECT_DOUBLE_EQ(parsed.edges[2].w, 0.5);
  EXPECT_EQ(parsed.n, 4);
}

TEST_F(IoTest, EdgeListMalformedLineThrows) {
  const auto p = track(path("bad_line.txt"));
  {
    std::ofstream out(p);
    out << "0 1\nnot an edge\n2 3\n";
  }
  EXPECT_THROW(io::read_edge_list(p), std::runtime_error);
}

TEST_F(IoTest, ChunkParallelParseMatchesSerialParse) {
  // A file big enough to engage the chunk-parallel parser (> 64 KiB), with
  // comments sprinkled through it; every thread count must parse the exact
  // same edges in the exact same order.
  const auto p = track(path("big.txt"));
  constexpr int kLines = 20000;
  {
    std::ofstream out(p);
    out << "# nodes: 5000\n";
    for (int i = 0; i < kLines; ++i) {
      if (i % 500 == 0) out << "# checkpoint " << i << "\n";
      out << (i % 5000) << ' ' << ((i * 7 + 1) % 5000) << ' '
          << (1.0 + i % 3) << "\n";
    }
  }
  parallel::ThreadScope serial_scope(1);
  const auto ref = io::read_edge_list(p);
  ASSERT_EQ(ref.edges.size(), static_cast<std::size_t>(kLines));
  EXPECT_EQ(ref.n, 5000);
  for (int t : {2, 4, 8}) {
    parallel::ThreadScope scope(t);
    const auto got = io::read_edge_list(p);
    ASSERT_EQ(got.edges.size(), ref.edges.size()) << "threads " << t;
    EXPECT_EQ(got.n, ref.n) << "threads " << t;
    for (std::size_t i = 0; i < ref.edges.size(); ++i)
      ASSERT_EQ(got.edges[i], ref.edges[i]) << "threads " << t << " line " << i;
  }
}

TEST_F(IoTest, LargeRoundtripThroughParallelReader) {
  const auto g = gen::erdos_renyi(2000, 30000, /*directed=*/false, 17);
  const auto p = track(path("roundtrip_big.txt"));
  io::write_edge_list(g, p);
  parallel::ThreadScope scope(8);
  const auto back = io::read_edge_list_graph(p, /*directed=*/false);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  expect_same_graph(g, back);
}

TEST_F(IoTest, DimacsRoundtrip) {
  EdgeList edges{{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 7.0}};
  const auto g = CSRGraph::from_edges(4, edges, /*directed=*/true);
  const auto p = track(path("g.dimacs"));
  io::write_dimacs(g, p);
  const auto back = io::read_dimacs(p, /*directed=*/true);
  expect_same_graph(g, back);
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), 11.0);
}

TEST_F(IoTest, DimacsMissingHeaderThrows) {
  const auto p = track(path("bad.dimacs"));
  {
    std::ofstream out(p);
    out << "a 1 2 3\n";
  }
  EXPECT_THROW(io::read_dimacs(p), std::runtime_error);
}

TEST_F(IoTest, MetisRoundtrip) {
  const auto g = gen::karate_club();
  const auto p = track(path("karate.graph"));
  io::write_metis(g, p);
  const auto back = io::read_metis(p);
  expect_same_graph(g, back);
}

TEST_F(IoTest, MetisWeightedRoundtrip) {
  EdgeList edges{{0, 1, 3.0}, {1, 2, 2.0}};
  const auto g = CSRGraph::from_edges(3, edges, false);
  const auto p = track(path("w.graph"));
  io::write_metis(g, p);
  const auto back = io::read_metis(p);
  expect_same_graph(g, back);
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), 5.0);
}

TEST_F(IoTest, MetisRejectsDirected) {
  const auto g =
      CSRGraph::from_edges(2, {{0, 1, 1.0}}, /*directed=*/true);
  EXPECT_THROW(io::write_metis(g, path("d.graph")), std::invalid_argument);
}

TEST_F(IoTest, BinaryRoundtripLarge) {
  gen::RmatParams rp;
  rp.scale = 10;
  rp.edge_factor = 8;
  const auto g = gen::rmat(rp);
  const auto p = track(path("rmat.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.directed(), g.directed());
  expect_same_graph(g, back);
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  const auto p = track(path("garbage.bin"));
  {
    std::ofstream out(p, std::ios::binary);
    out << "not a snap binary file at all";
  }
  EXPECT_THROW(io::read_binary(p), std::runtime_error);
}

TEST_F(IoTest, BinaryPreservesDirectedness) {
  const auto g = CSRGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}},
                                      /*directed=*/true);
  const auto p = track(path("dir.bin"));
  io::write_binary(g, p);
  EXPECT_TRUE(io::read_binary(p).directed());
}

// ----------------------------------------------------- malformed inputs

TEST_F(IoTest, EdgeListGarbageLineThrows) {
  const auto p = track(path("garbage.txt"));
  {
    std::ofstream out(p);
    out << "0 1\nnot numbers at all\n";
  }
  EXPECT_THROW(io::read_edge_list(p), std::runtime_error);
}

TEST_F(IoTest, MetisTruncatedThrows) {
  const auto p = track(path("trunc.graph"));
  {
    std::ofstream out(p);
    out << "5 4\n2 3\n";  // promises 5 vertex lines, delivers 1
  }
  EXPECT_THROW(io::read_metis(p), std::runtime_error);
}

TEST_F(IoTest, BinaryTruncatedThrows) {
  const auto g = gen::karate_club();
  const auto p = track(path("short.bin"));
  io::write_binary(g, p);
  // Chop the file in half.
  const auto full = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, full / 2);
  EXPECT_THROW(io::read_binary(p), std::runtime_error);
}

TEST_F(IoTest, EmptyGraphRoundtrips) {
  const auto g = CSRGraph::from_edges(7, {}, false);
  const auto p = track(path("empty.txt"));
  io::write_edge_list(g, p);
  const auto back = io::read_edge_list_graph(p, false);
  EXPECT_EQ(back.num_vertices(), 7);
  EXPECT_EQ(back.num_edges(), 0);
}

// ------------------------------------------- binary v2 format specifics

TEST_F(IoTest, BinaryV2PreservesWeightsAndEdgeIds) {
  EdgeList edges{{0, 2, 3.5}, {1, 2, 0.25}, {0, 1, -1.0}};
  const auto g = CSRGraph::from_edges(4, edges, false);
  const auto p = track(path("v2w.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  expect_same_graph(g, back);
  EXPECT_TRUE(back.weighted());
  EXPECT_DOUBLE_EQ(back.total_edge_weight(), g.total_edge_weight());
  // Edge ids and per-arc weights survive the raw-array round trip.
  ASSERT_EQ(back.edges().size(), g.edges().size());
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    EXPECT_EQ(back.edges()[e].u, g.edges()[e].u);
    EXPECT_EQ(back.edges()[e].v, g.edges()[e].v);
    EXPECT_DOUBLE_EQ(back.edges()[e].w, g.edges()[e].w);
  }
}

std::string file_bytes(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The SNAPB2 bytes of two fixed graphs are committed here: the reader and
// the writer may change how a graph is held in memory, never what its file
// says.  A file read back and written again is the same file.
TEST_F(IoTest, BinaryV2FormatIsPinned) {
  const CSRGraph unweighted = gen::karate_club();
  EdgeList edges;
  for (const Edge& e : unweighted.edges()) edges.push_back(e);
  for (std::size_t e = 0; e < edges.size(); ++e)
    edges[e].w = 0.5 * static_cast<double>(1 + e % 4);
  const CSRGraph weighted = CSRGraph::from_edges(34, edges, false);
  ASSERT_FALSE(unweighted.weighted());
  ASSERT_TRUE(weighted.weighted());

  struct Pinned {
    const CSRGraph* graph;
    std::size_t size;
    std::uint64_t digest;
  };
  // 48-byte header; offsets, targets and arc ids (35 + 2 x 156 words);
  // 78 {u, v} records, or per-arc weights and 78 {u, v, w} records.
  const Pinned pins[] = {{&unweighted, 4072, 0xdf08dd1ad96f200dULL},
                         {&weighted, 5944, 0xb30ff0a3665016cbULL}};
  for (const Pinned& pin : pins) {
    const auto p = track(path("pinned.bin"));
    io::write_binary(*pin.graph, p);
    const std::string bytes = file_bytes(p);
    EXPECT_EQ(bytes.size(), pin.size);
    EXPECT_EQ(fnv1a(bytes), pin.digest);
    const auto again = track(path("pinned_again.bin"));
    io::write_binary(io::read_binary(p), again);
    EXPECT_EQ(file_bytes(again), bytes) << "weighted=" << pin.graph->weighted();
  }
}

// ------------------------------------------- SNAPB2 checksum: the zero fold

/// An 8-byte word's significant bytes in memory order: the position of its
/// last non-zero byte plus one (0 for a zero word).  The checksum folds the
/// bytes after it into one multiplication.
int live_bytes(const char* word) {
  int live = 0;
  for (int b = 0; b < 8; ++b)
    if (word[b] != 0) live = b + 1;
  return live;
}

/// True if some byte before the word's last non-zero one is zero.
bool has_inner_zero(const char* word) {
  const int live = live_bytes(word);
  for (int b = 0; b + 1 < live; ++b)
    if (word[b] == 0) return true;
  return false;
}

TEST(Fnv1a, FoldEqualsByteWiseFnv1aAtEveryLengthAndSplit) {
  // Words of every shape: 0 to 8 significant bytes, each with and without
  // zero bytes below the last non-zero one.
  std::string bytes;
  for (int live = 0; live <= 8; ++live) {
    for (const bool holes : {false, true}) {
      std::string word(8, '\0');
      for (int b = 0; b < live; ++b)
        if (!holes || b + 1 == live || b % 2 != 0)
          word[static_cast<std::size_t>(b)] = static_cast<char>(0x11 * (b + 1));
      bytes += word;
    }
  }
  // Every start and length, so words straddle the hasher's 8-byte steps and
  // tails of 1 to 7 bytes go the byte-wise way.
  for (std::size_t from = 0; from < 8; ++from) {
    for (std::size_t len = 0; from + len <= bytes.size(); ++len) {
      io::Fnv1a sum;
      sum.update(bytes.data() + from, len);
      ASSERT_EQ(sum.hash(), fnv1a(bytes.substr(from, len)))
          << "from " << from << " length " << len;
    }
  }
  // Fed in two pieces, split anywhere: the digest does not depend on how
  // the stream is cut.
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    io::Fnv1a sum;
    sum.update(bytes.data(), split);
    sum.update(bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(sum.hash(), fnv1a(bytes)) << "split at " << split;
  }
}

TEST_F(IoTest, BinaryV2ChecksumIsFnv1aForEveryWordShape) {
  // An unweighted graph whose ids and offsets take 0 to 3 significant
  // bytes (256 and 65,536 with zero bytes below the top one), and weighted
  // graphs whose weights are chosen bit patterns, all positive doubles:
  // the four below, then, for each count k of significant bytes, one
  // pattern with k non-zero bytes and one with only its top byte set.
  const vid_t ids[] = {0, 1, 255, 256, 65535, 65536, 69999};
  EdgeList edges;
  for (std::size_t i = 0; i < std::size(ids); ++i)
    for (std::size_t j = i + 1; j < std::size(ids); ++j)
      edges.push_back({ids[i], ids[j], 1.0});
  const CSRGraph unweighted = CSRGraph::from_edges(70000, edges, false);
  ASSERT_FALSE(unweighted.weighted());

  const auto with_weights = [&](const std::vector<std::uint64_t>& patterns) {
    EdgeList weighted = edges;
    for (std::size_t e = 0; e < weighted.size(); ++e)
      weighted[e].w = std::bit_cast<double>(patterns[e % patterns.size()]);
    return CSRGraph::from_edges(70000, weighted, false);
  };
  std::vector<std::uint64_t> every_width;
  for (int k = 1; k <= 8; ++k) {
    every_width.push_back(0x0102030405060708ULL >> (8 * (8 - k)));
    every_width.push_back(0x40ULL << (8 * (k - 1)));
  }
  const CSRGraph graphs[] = {
      unweighted,
      with_weights({0x1ULL, 0x3FF0000000000000ULL, 0x0000001234567890ULL,
                    0x0102030405060708ULL}),
      with_weights(every_width)};

  std::set<int> widths;
  bool inner_zero = false;
  for (const CSRGraph& g : graphs) {
    const auto p = track(path("word_shapes.bin"));
    io::write_binary(g, p);
    const std::string bytes = file_bytes(p);
    ASSERT_EQ((bytes.size() - 48) % 8, 0u);
    std::uint64_t checksum = 0;
    std::memcpy(&checksum, bytes.data() + 40, sizeof(checksum));
    EXPECT_EQ(checksum, fnv1a(bytes.substr(48)))
        << "weighted=" << g.weighted();
    for (std::size_t at = 48; at < bytes.size(); at += 8) {
      widths.insert(live_bytes(bytes.data() + at));
      inner_zero |= has_inner_zero(bytes.data() + at);
    }

    const CSRGraph back = io::read_binary(p);
    ASSERT_EQ(back.weighted(), g.weighted());
    ASSERT_EQ(back.edges().size(), g.edges().size());
    for (std::size_t e = 0; e < g.edges().size(); ++e) {
      EXPECT_EQ(back.edges()[e].u, g.edges()[e].u);
      EXPECT_EQ(back.edges()[e].v, g.edges()[e].v);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.edges()[e].w),
                std::bit_cast<std::uint64_t>(g.edges()[e].w));
    }
  }
  // The payloads reach every word shape the fold distinguishes.
  EXPECT_EQ(widths, (std::set<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(inner_zero);
}

TEST_F(IoTest, BinaryV2ChecksumCorruptionRejected) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.edge_factor = 8;
  const auto g = gen::rmat(rp);
  const auto p = track(path("corrupt.bin"));
  io::write_binary(g, p);
  {
    // Flip one payload byte past the 48-byte v2 header.
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(48 + 100);
    char c = 0;
    f.read(&c, 1);
    f.seekp(48 + 100);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  try {
    io::read_binary(p);
    FAIL() << "corrupted file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, BinaryV2FutureVersionRejected) {
  const auto g = gen::path_graph(5);
  const auto p = track(path("future.bin"));
  io::write_binary(g, p);
  {
    // Bump the version field (bytes 8..11 of the header).
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t future = 99;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  try {
    io::read_binary(p);
    FAIL() << "future-version file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, BinaryLegacyV1StillReads) {
  // Hand-crafted SNAPB1 bytes: 32-byte header {magic, n, m, directed, pad}
  // followed by m {i64 u, i64 v, f64 w} records — the exact layout every
  // pre-v2 snapshot on disk has.
  const auto p = track(path("legacy.bin"));
  {
    std::ofstream out(p, std::ios::binary);
    const char magic[8] = {'S', 'N', 'A', 'P', 'B', '1', '\n', '\0'};
    out.write(magic, 8);
    const std::int64_t n = 3, m = 2;
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    const char directed_and_pad[8] = {0};
    out.write(directed_and_pad, 8);
    const std::int64_t e0[2] = {0, 1}, e1[2] = {1, 2};
    const double w0 = 1.0, w1 = 2.5;
    out.write(reinterpret_cast<const char*>(e0), 16);
    out.write(reinterpret_cast<const char*>(&w0), 8);
    out.write(reinterpret_cast<const char*>(e1), 16);
    out.write(reinterpret_cast<const char*>(&w1), 8);
  }
  const auto g = io::read_binary(p);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.directed());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.5);
}

TEST_F(IoTest, BinaryLegacyV1RefusesWhatItCannotBuild) {
  // SNAPB1 stores no per-vertex array, so its header's n is checked on its
  // own (at most 2^32) and every endpoint against it; each refusal is a
  // runtime_error, never bad_alloc or from_edges' out_of_range.
  const auto legacy = [&](std::int64_t n, std::int64_t u, std::int64_t v) {
    const auto p = track(path("v1_bad.bin"));
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    const char magic[8] = {'S', 'N', 'A', 'P', 'B', '1', '\n', '\0'};
    out.write(magic, 8);
    const std::int64_t m = 1;
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    const char directed_and_pad[8] = {0};
    out.write(directed_and_pad, 8);
    const std::int64_t e[2] = {u, v};
    const double w = 1.0;
    out.write(reinterpret_cast<const char*>(e), 16);
    out.write(reinterpret_cast<const char*>(&w), 8);
    return p;
  };
  const auto refused = [](const std::string& p, const char* why) {
    try {
      (void)io::read_binary(p);
      ADD_FAILURE() << "accepted a file with " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  refused(legacy(std::int64_t{1} << 40, 0, 1), "bad header");
  refused(legacy((std::int64_t{1} << 32) + 2, 0, 1), "bad header");
  refused(legacy(3, 0, 3), "outside [0, n)");
  refused(legacy(3, -1, 2), "outside [0, n)");
  EXPECT_EQ(io::read_binary(legacy(3, 0, 2)).num_edges(), 1);

  // A SNAPB2 file whose magic reads SNAPB1 hands its version and flags
  // words to the legacy reader as n: 2 + (flags << 32), past the cap.
  const auto p = track(path("v2_as_v1.bin"));
  io::write_binary(gen::karate_club(), p);
  {
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(5);
    f.put('1');
  }
  refused(p, "bad header");
}

TEST_F(IoTest, BinaryV2EmptyAndEdgelessGraphs) {
  const auto g = CSRGraph::from_edges(9, {}, false);
  const auto p = track(path("v2empty.bin"));
  io::write_binary(g, p);
  const auto back = io::read_binary(p);
  EXPECT_EQ(back.num_vertices(), 9);
  EXPECT_EQ(back.num_edges(), 0);
}

TEST_F(IoTest, LargeIdsSurviveAllFormats) {
  // Sparse ids near the top of the declared range.
  EdgeList edges{{99998, 99999, 2.0}, {0, 99999, 1.0}};
  const auto g = CSRGraph::from_edges(100000, edges, false);
  const auto p1 = track(path("big.txt"));
  io::write_edge_list(g, p1);
  EXPECT_EQ(io::read_edge_list_graph(p1, false).num_edges(), 2);
  const auto p2 = track(path("big.bin"));
  io::write_binary(g, p2);
  EXPECT_EQ(io::read_binary(p2).num_vertices(), 100000);
}

// ---------------------------------------- binary v2 hostile-input checks

constexpr std::size_t kV2HeaderBytes = 48;
constexpr std::size_t kV2PayloadBytesAt = 32;  // magic, version, flags, n, m
constexpr std::size_t kV2ChecksumAt = 40;

/// A 48-byte SNAPB2 header with no payload behind it.
void write_bare_v2_header(const std::string& p, std::int64_t n,
                          std::int64_t m, std::uint64_t payload_bytes) {
  std::ofstream out(p, std::ios::binary);
  const char magic[8] = {'S', 'N', 'A', 'P', 'B', '2', '\n', '\0'};
  const std::uint32_t version = io::kBinaryFormatVersion, flags = 0;
  const std::uint64_t checksum = 0;
  out.write(magic, 8);
  out.write(reinterpret_cast<const char*>(&version), 4);
  out.write(reinterpret_cast<const char*>(&flags), 4);
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&m), 8);
  out.write(reinterpret_cast<const char*>(&payload_bytes), 8);
  out.write(reinterpret_cast<const char*>(&checksum), 8);
}

/// Let `mutate` edit the payload of an unweighted SNAPB2 file as 64-bit
/// words (offsets, then adjacency, arc edge ids, edge endpoints), then
/// re-seal it with a valid FNV-1a checksum, so only the validity checks
/// stand between the edit and the reader.
template <typename Mutate>
void rewrite_v2_payload(const std::string& p, Mutate&& mutate) {
  std::vector<char> bytes;
  {
    std::ifstream in(p, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ((bytes.size() - kV2HeaderBytes) % 8, 0u);
  std::vector<std::int64_t> words((bytes.size() - kV2HeaderBytes) / 8);
  std::memcpy(words.data(), bytes.data() + kV2HeaderBytes, words.size() * 8);
  mutate(words);
  std::memcpy(bytes.data() + kV2HeaderBytes, words.data(), words.size() * 8);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = kV2HeaderBytes; i < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + kV2ChecksumAt, &h, sizeof(h));
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_rejected(const std::string& p, const std::string& names) {
  try {
    io::read_binary(p);
    ADD_FAILURE() << "invalid file was accepted (expected: " << names << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, BinaryV2OversizedHeaderRejectedBeforeAllocating) {
  // n = 2^40 would ask for 8 TiB of offsets.  Whether or not the header's
  // payload count agrees with n, the reader must compare it with the file
  // (48 bytes) and throw, not allocate.
  const std::int64_t n = std::int64_t{1} << 40;
  const auto p = track(path("oversized.bin"));
  write_bare_v2_header(p, n, 0, static_cast<std::uint64_t>(n + 1) * 8);
  expect_rejected(p, "truncated");
  write_bare_v2_header(p, n, 0, 0);
  expect_rejected(p, "payload size");
  write_bare_v2_header(p, 0, std::int64_t{1} << 40, 8);
  expect_rejected(p, "payload size");
  // The payload count itself must agree with the file size: a header with a
  // self-consistent (n, m, payload) over a short file is truncated.
  const auto g = gen::path_graph(6);
  io::write_binary(g, p);
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 8);
  expect_rejected(p, "truncated");
}

TEST_F(IoTest, BinaryV2TrailingBytesRejected) {
  // The checksum covers the payload only, so bytes appended after it leave
  // the checksum intact; the header's payload size must then equal what
  // follows the header, or the file is refused.
  const auto p = track(path("trailing.bin"));
  for (const std::size_t extra : {std::size_t{34}, std::size_t{1}}) {
    SCOPED_TRACE(::testing::Message() << extra << " bytes appended");
    io::write_binary(gen::karate_club(), p);
    {
      std::ofstream out(p, std::ios::binary | std::ios::app);
      out << std::string(extra, 'x');
    }
    expect_rejected(p, "payload size");
  }
  io::write_binary(gen::karate_club(), p);
  EXPECT_EQ(io::read_binary(p).num_edges(), 78);
}

TEST_F(IoTest, BinaryV2NonMonotoneOffsetsRejected) {
  // A checksum proves integrity, not validity: one offset out of order, with
  // the first and last offsets intact and the checksum recomputed.
  const auto g = gen::path_graph(8);  // offsets 0 1 3 5 7 9 11 13 14
  const auto p = track(path("nonmonotone.bin"));
  io::write_binary(g, p);
  rewrite_v2_payload(p, [](std::vector<std::int64_t>& w) { w[3] = 2; });
  expect_rejected(p, "offsets array is not non-decreasing");
}

TEST_F(IoTest, BinaryV2OutOfRangeIndicesRejected) {
  const auto g = gen::path_graph(8);  // n = 8, m = 7, 14 arcs
  const std::size_t adj_at = 9, ids_at = adj_at + 14, edges_at = ids_at + 14;
  const auto p = track(path("badindex.bin"));
  struct Case {
    std::size_t slot;
    std::int64_t past_end;  // the first out-of-range value above
    std::string names;
  };
  const Case cases[] = {{adj_at + 5, 8, "adjacency"},
                        {ids_at + 2, 7, "arc edge id"},
                        {edges_at + 3, 8, "edge array"}};
  for (const auto& c : cases) {
    for (const std::int64_t bad : {std::int64_t{-1}, c.past_end}) {
      io::write_binary(g, p);
      rewrite_v2_payload(p,
                         [&](std::vector<std::int64_t>& w) { w[c.slot] = bad; });
      expect_rejected(p, c.names);
    }
  }
  // The untouched file still reads.
  io::write_binary(g, p);
  EXPECT_EQ(io::read_binary(p).num_edges(), 7);
}

}  // namespace
}  // namespace snap
