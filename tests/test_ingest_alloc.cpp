// Heap budgets of the ingest path, from request body to published image:
// decoding a body allocates its records once, UpdateBatch::canonicalize
// holds one arc array, an unweighted CSR image holds topology only, one
// StreamingGraph::apply frees each stage's buffer once the next one exists
// and writes each row it fills from empty once, at its final size, and the
// HTTP server holds a request body once and keeps none of it on an idle
// keep-alive connection.  Global operator new/delete are replaced with
// size-tracking versions, which is why this test is its own executable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <utility>

#include "snap/debug/validate.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/parallel.hpp"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

// Each block carries its size in a header, so delete knows what to subtract.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* tracked_alloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  const std::size_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (peak < now && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(raw), std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return tracked_alloc(n); }
void* operator new[](std::size_t n) { return tracked_alloc(n); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }

namespace {

using snap::CSRGraph;
using snap::DynamicGraph;
using snap::vid_t;
using snap::stream::ArcUpdate;
using snap::stream::CanonicalBatch;
using snap::stream::StreamingGraph;
using snap::stream::UpdateBatch;
using snap::stream::UpdateRecord;

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t live() { return g_live.load(std::memory_order_relaxed); }
std::size_t peak() { return g_peak.load(std::memory_order_relaxed); }
/// Start a peak measurement at the current live heap; returns it.
std::size_t reset_peak() {
  const std::size_t now = live();
  g_peak.store(now, std::memory_order_relaxed);
  return now;
}

/// Edge i of a fixed undirected graph on kVertices vertices: vertex
/// i mod kVertices joined to the next 1 + i / kVertices ones, so every
/// pair is distinct, there are no self loops, and every vertex ends with
/// the same degree (2 * kEdges / kVertices).
constexpr vid_t kVertices = vid_t{1} << 12;
constexpr vid_t kEdges = vid_t{1} << 17;
std::pair<vid_t, vid_t> edge_at(vid_t i) {
  const vid_t u = i % kVertices;
  return {u, (u + 1 + i / kVertices) % kVertices};
}

/// Bytes of an unweighted undirected image: offsets, targets, arc edge ids
/// and {u, v} endpoints — 24 per arc plus the offsets.
std::size_t lean_image_bytes(vid_t n, vid_t m) {
  const auto arcs = static_cast<std::size_t>(2 * m);
  return 8 * static_cast<std::size_t>(n + 1) + 16 * arcs +
         16 * static_cast<std::size_t>(m);
}

TEST(CanonicalizeAlloc, PeakIsOneArcArray) {
  // 2^17 distinct undirected edges, insert only: 2^18 arcs survive, so the
  // output alone is 6 MiB of 24-byte ArcUpdate.
  static_assert(sizeof(ArcUpdate) == 24);
  UpdateBatch batch;
  for (vid_t i = 0; i < kEdges; ++i)
    batch.insert((i * 7919) % kEdges, kEdges + i);
  const std::size_t arc_array = 2 * kEdges * sizeof(ArcUpdate);
  constexpr std::size_t kSlack = kMiB;

  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    (void)batch.canonicalize(/*directed=*/false);  // warm-up

    const std::size_t before = reset_peak();
    const CanonicalBatch cb = batch.canonicalize(/*directed=*/false);
    const std::size_t top = peak();

    ASSERT_EQ(cb.arcs.size(), 2 * static_cast<std::size_t>(kEdges));
    EXPECT_LE(top - before, arc_array + kSlack)
        << "threads=" << threads << ": peak " << top - before
        << " B above the live heap, one arc array is " << arc_array << " B";
  }
}

DynamicGraph fixed_dynamic_graph() {
  DynamicGraph d(kVertices, /*directed=*/false);
  for (vid_t i = 0; i < kEdges; ++i) {
    const auto [u, v] = edge_at(i);
    d.insert_edge(u, v);
  }
  return d;
}

TEST(LeanImageAlloc, ToCsrLeavesOnlyTopology) {
  const DynamicGraph d = fixed_dynamic_graph();
  const std::size_t want = lean_image_bytes(kVertices, kEdges);
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    const std::size_t before = live();
    const CSRGraph g = d.to_csr();
    EXPECT_EQ(live() - before, want) << "threads=" << threads;
    EXPECT_EQ(g.byte_size(), want);
    EXPECT_TRUE(g.arc_weights().empty());
  }
}

TEST(LeanImageAlloc, ReadBinaryReadsThePayloadInPlace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "snap_ingest_alloc.snapb")
          .string();
  snap::io::write_binary(fixed_dynamic_graph().to_csr(), path);
  const std::size_t want = lean_image_bytes(kVertices, kEdges);
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    const std::size_t before = reset_peak();
    const CSRGraph g = snap::io::read_binary(path);
    const std::size_t top = peak();
    EXPECT_EQ(live() - before, want) << "threads=" << threads;
    EXPECT_LE(top - before, want + kMiB)
        << "threads=" << threads << ": read_binary peaked " << top - before
        << " B above the live heap for a " << want << " B image";
    ASSERT_EQ(g.num_edges(), kEdges);
  }
  std::filesystem::remove(path);
}

TEST(ApplyAlloc, RecordsAndArcsAreFreedOnceTheNextStageExists) {
  // Eager, no observer: apply canonicalizes, applies and publishes.  The
  // records may sit beside the arcs, the arcs beside the graph's growth,
  // and the growth beside the new image — never three of them together,
  // and no change list at all.  Scratch: the per-arc effect flags (256 KiB
  // here), the owner-group index, sample-sort histograms and to_csr's
  // per-row counts; 4096 vertices keep the per-vertex ones small.
  constexpr std::size_t kScratch = kMiB;
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    StreamingGraph sg(0, /*directed=*/false);
    sg.set_eager_snapshots(true);

    const std::size_t before = reset_peak();
    std::size_t records = 0;
    snap::stream::ApplyStats st;
    {
      UpdateBatch batch;
      for (vid_t i = 0; i < kEdges; ++i) {
        const auto [u, v] = edge_at(i);
        batch.insert(u, v);
      }
      records = batch.records().capacity() * sizeof(UpdateRecord);
      st = sg.apply(std::move(batch));
    }
    const std::size_t top = peak();

    ASSERT_EQ(st.applied_inserts, static_cast<std::size_t>(kEdges));
    const std::size_t arcs = st.canonical_arcs * sizeof(ArcUpdate);
    const std::size_t image = sg.pin()->graph().byte_size();
    ASSERT_EQ(image, lean_image_bytes(kVertices, kEdges));
    const std::size_t growth = live() - before - image;
    const std::size_t bound =
        std::max({records + arcs, arcs + growth, growth + image}) + kScratch;
    EXPECT_LE(top - before, bound)
        << "threads=" << threads << ": peak " << top - before
        << " B; records " << records << ", arcs " << arcs << ", growth "
        << growth << ", image " << image;
  }
}

TEST(ApplyAlloc, RowsAreWrittenOnceAtTheirFinalSize) {
  // Insert only, onto an empty graph: the first 3/4 of the fixed edges give
  // every vertex 48 neighbours, under the promote threshold, so every row
  // stays flat.  Each row starts empty and is filled from its owner group
  // once, in one allocation of exactly its final size.  (All the
  // edges would give degree 64, a power of two, where push_back doubling
  // also ends with no slack; at 48 it leaves 16 words per row.)
  constexpr vid_t kBatch = 3 * kEdges / 4;
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    StreamingGraph sg(0, /*directed=*/false);
    sg.set_eager_snapshots(true);
    UpdateBatch batch;
    for (vid_t i = 0; i < kBatch; ++i) {
      const auto [u, v] = edge_at(i);
      batch.insert(u, v);
    }
    ASSERT_EQ(sg.apply(std::move(batch)).applied_inserts,
              static_cast<std::size_t>(kBatch));

    const auto& rows = snap::debug::Access::flat(sg.graph());
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(kVertices));
    std::size_t slack_rows = 0;
    for (const auto& row : rows) {
      ASSERT_EQ(row.size(), static_cast<std::size_t>(2 * kBatch / kVertices));
      slack_rows += row.capacity() != row.size() ? 1 : 0;
    }
    EXPECT_EQ(slack_rows, 0u)
        << "threads=" << threads << ": rows whose capacity is not their size";
  }
}

/// A POST /ingest body of `n` flat records, as the benchmark renders them.
std::string flat_body(vid_t n) {
  std::string body = "{\"updates\":[";
  for (vid_t i = 0; i < n; ++i) {
    const auto [u, v] = edge_at(i % kEdges);
    if (i != 0) body += ',';
    body += "{\"op\":\"insert\",\"u\":" + std::to_string(u) +
            ",\"v\":" + std::to_string(v) + ",\"time\":" + std::to_string(i) +
            "}";
  }
  return body + "]}";
}

TEST(DecodeAlloc, RecordsAreAllocatedOnce) {
  // Every record of a flat body closes with the body's only '}', so the
  // decoder sizes its one records array exactly: 4 MiB here, with no
  // doubling growth and no per-chunk buffers.
  static_assert(sizeof(UpdateRecord) == 32);
  const std::string body = flat_body(kEdges);
  const std::size_t records = kEdges * sizeof(UpdateRecord);
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    std::string err;
    {
      UpdateBatch warm;
      ASSERT_TRUE(snap::server::decode_ingest(body, &warm, &err)) << err;
    }
    const std::size_t before = reset_peak();
    UpdateBatch batch;
    ASSERT_TRUE(snap::server::decode_ingest(body, &batch, &err)) << err;
    const std::size_t top = peak();
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(kEdges));
    EXPECT_LE(top - before, records + kMiB)
        << "threads=" << threads << ": decoding peaked " << top - before
        << " B above the live heap for " << records << " B of records";
  }
}

TEST(DecodeAlloc, EmptyRecordsCannotInflateTheArray) {
  // 8 MiB of "{}," holds 2.8M '}' bytes, but a good record is at least 27
  // bytes long, so the array is bounded by 32/27 of the body.
  const std::size_t target = 8 * kMiB;
  std::string body = "{\"updates\":[{}";
  while (body.size() + 5 < target) body += ",{}";
  body += "]}";
  const std::size_t budget = body.size() / 27 * sizeof(UpdateRecord) + kMiB;
  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    const std::size_t before = reset_peak();
    UpdateBatch batch;
    std::string err;
    EXPECT_FALSE(snap::server::decode_ingest(body, &batch, &err));
    const std::size_t top = peak();
    EXPECT_EQ(err, "updates[0] needs non-negative integer \"u\" and \"v\"");
    EXPECT_TRUE(batch.empty());
    EXPECT_LE(top - before, budget)
        << "threads=" << threads << ": decoding peaked " << top - before
        << " B above the live heap for a " << body.size() << " B body";
  }
}

/// Answers every request with the size of its body.
class BodySize final : public snap::server::HttpHandler {
 public:
  snap::server::HttpResponse handle(
      const snap::server::HttpRequest& request) override {
    return {200, "application/json",
            "{\"bytes\":" + std::to_string(request.body.size()) + "}"};
  }
};

TEST(HttpBodyAlloc, KeepAliveConnectionKeepsNoBody) {
  BodySize handler;
  snap::server::HttpServer server(&handler, /*threads=*/1);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  snap::server::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &err)) << err;
  ASSERT_EQ(client.request("GET", "/").status, 200);  // connection is up

  const std::string body(16 * kMiB, 'x');
  const std::size_t before = live();
  const auto big = client.request("POST", "/ingest", body);
  ASSERT_EQ(big.status, 200) << big.error;
  EXPECT_EQ(big.body, "{\"bytes\":" + std::to_string(body.size()) + "}");
  // The worker reads this request only after the first one's state is
  // gone, and the connection stays open.
  ASSERT_EQ(client.request("GET", "/").status, 200);
  const std::size_t after = live();
  EXPECT_LE(after, before + kMiB)
      << "the idle keep-alive connection holds " << after - before
      << " B after a " << body.size() << " B request";
  server.stop();
}

}  // namespace
