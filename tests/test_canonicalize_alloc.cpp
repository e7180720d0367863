// Heap budget of UpdateBatch::canonicalize: the whole step may hold one arc
// array (its output) plus O(threads x buckets) scratch beyond what was live
// before the call.  Global operator new/delete are replaced with
// size-tracking versions, which is why this test is its own executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

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

using snap::stream::ArcUpdate;
using snap::stream::CanonicalBatch;
using snap::stream::UpdateBatch;

TEST(CanonicalizeAlloc, PeakIsOneArcArray) {
  // 2^17 distinct undirected edges, insert only: 2^18 arcs survive, so the
  // output alone is 8 MiB of ArcUpdate.
  constexpr snap::vid_t kEdges = snap::vid_t{1} << 17;
  UpdateBatch batch;
  for (snap::vid_t i = 0; i < kEdges; ++i)
    batch.insert((i * 7919) % kEdges, kEdges + i);
  const std::size_t arc_array = 2 * kEdges * sizeof(ArcUpdate);
  constexpr std::size_t kSlack = std::size_t{1} << 20;

  for (const int threads : {1, 4}) {
    snap::parallel::ThreadScope scope(threads);
    (void)batch.canonicalize(/*directed=*/false);  // warm-up

    const std::size_t before = g_live.load(std::memory_order_relaxed);
    g_peak.store(before, std::memory_order_relaxed);
    const CanonicalBatch cb = batch.canonicalize(/*directed=*/false);
    const std::size_t peak = g_peak.load(std::memory_order_relaxed);

    ASSERT_EQ(cb.arcs.size(), 2 * static_cast<std::size_t>(kEdges));
    EXPECT_LE(peak - before, arc_array + kSlack)
        << "threads=" << threads << ": peak " << peak - before
        << " B above the live heap, one arc array is " << arc_array << " B";
  }
}

}  // namespace
