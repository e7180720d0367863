#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "snap/util/bitmap.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"
#include "snap/util/timer.hpp"

namespace snap {
namespace {

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.next_bounded(17);
    EXPECT_LT(x, 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  SplitMix64 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkedStreamsAreIndependentlyDeterministic) {
  SplitMix64 base(9);
  SplitMix64 f1 = base.fork(5);
  SplitMix64 f2 = base.fork(5);
  SplitMix64 f3 = base.fork(6);
  EXPECT_EQ(f1(), f2());
  EXPECT_NE(f1(), f3());
}

class PrefixSumTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixSumTest, MatchesSerialReference) {
  const std::size_t n = GetParam();
  SplitMix64 rng(n);
  std::vector<std::int64_t> in(n);
  for (auto& x : in) x = static_cast<std::int64_t>(rng.next_bounded(100));
  std::vector<std::int64_t> out;
  parallel::exclusive_prefix_sum(in, out);
  ASSERT_EQ(out.size(), n + 1);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], acc) << "at " << i;
    acc += in[i];
  }
  EXPECT_EQ(out[n], acc);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixSumTest,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097,
                                           100000));

TEST(Parallel, ReduceSum) {
  const std::int64_t n = 10000;
  const auto total = parallel::parallel_reduce_sum<std::int64_t>(
      n, [](std::int64_t i) { return i; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel::parallel_for(std::int64_t{1000}, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, AtomicFetchMaxMin) {
  std::atomic<std::int64_t> mx{0}, mn{100};
  parallel::parallel_for(std::int64_t{1000}, [&](std::int64_t i) {
    parallel::atomic_fetch_max(mx, i);
    parallel::atomic_fetch_min(mn, i);
  });
  EXPECT_EQ(mx.load(), 999);
  EXPECT_EQ(mn.load(), 0);
}

TEST(Parallel, AtomicAddDouble) {
  std::atomic<double> acc{0};
  parallel::parallel_for(std::int64_t{1000},
                         [&](std::int64_t) { parallel::atomic_add(acc, 0.5); });
  EXPECT_DOUBLE_EQ(acc.load(), 500.0);
}

TEST(Parallel, ThreadScopeRestores) {
  const int before = parallel::num_threads();
  {
    parallel::ThreadScope scope(1);
    EXPECT_EQ(parallel::num_threads(), 1);
  }
  EXPECT_EQ(parallel::num_threads(), before);
}

// --- use_parallel: the one engine-selection policy behind every `path` ---

TEST(UseParallel, ForcedPathsIgnoreSizeAndThreads) {
  for (const int t : {1, 4}) {
    parallel::ThreadScope scope(t);
    for (const std::int64_t work : {0, 1, 1 << 20}) {
      EXPECT_FALSE(parallel::use_parallel(ExecPath::kSerial, work, 16));
      EXPECT_TRUE(parallel::use_parallel(ExecPath::kParallel, work, 16));
    }
  }
}

TEST(UseParallel, AutoFlipsExactlyAtTheCutoff) {
  parallel::ThreadScope scope(4);
  const std::int64_t cutoff = parallel::kParallelVertexCutoff;
  EXPECT_FALSE(parallel::use_parallel(ExecPath::kAuto, cutoff - 1, cutoff));
  EXPECT_TRUE(parallel::use_parallel(ExecPath::kAuto, cutoff, cutoff));
  EXPECT_TRUE(parallel::use_parallel(ExecPath::kAuto, cutoff + 1, cutoff));
}

TEST(UseParallel, AutoStaysSerialOnOneThread) {
  parallel::ThreadScope scope(1);
  EXPECT_FALSE(parallel::use_parallel(ExecPath::kAuto, 1 << 20, 16));
}

TEST(Bitmap, TestAndSetFlipsOnce) {
  AtomicBitmap bm(200);
  EXPECT_FALSE(bm.test(5));
  EXPECT_TRUE(bm.test_and_set(5));
  EXPECT_FALSE(bm.test_and_set(5));
  EXPECT_TRUE(bm.test(5));
}

TEST(Bitmap, ConcurrentSetExactlyOneWinner) {
  AtomicBitmap bm(64);
  std::atomic<int> winners{0};
  parallel::parallel_for(std::int64_t{1000}, [&](std::int64_t) {
    if (bm.test_and_set(7)) winners.fetch_add(1);
  });
  EXPECT_EQ(winners.load(), 1);
}

TEST(Bitmap, ClearResets) {
  AtomicBitmap bm(100);
  bm.set(63);
  bm.set(64);
  bm.clear();
  EXPECT_FALSE(bm.test(63));
  EXPECT_FALSE(bm.test(64));
}

// --- parallel_sort: differential vs std::sort on adversarial inputs ---

enum class FillPattern { kSorted, kReversed, kAllEqual, kRandom, kSawtooth };

std::vector<std::int64_t> make_input(FillPattern p, std::size_t n) {
  std::vector<std::int64_t> v(n);
  SplitMix64 rng(n + 17);
  for (std::size_t i = 0; i < n; ++i) {
    switch (p) {
      case FillPattern::kSorted:
        v[i] = static_cast<std::int64_t>(i);
        break;
      case FillPattern::kReversed:
        v[i] = static_cast<std::int64_t>(n - i);
        break;
      case FillPattern::kAllEqual:
        v[i] = 42;
        break;
      case FillPattern::kRandom:
        v[i] = static_cast<std::int64_t>(rng.next_bounded(1u << 20));
        break;
      case FillPattern::kSawtooth:
        v[i] = static_cast<std::int64_t>(i % 7);
        break;
    }
  }
  return v;
}

using SortCase = std::tuple<int /*pattern*/, int /*threads*/, std::size_t>;

class ParallelSortTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(ParallelSortTest, MatchesStdSort) {
  const auto [pat, threads, n] = GetParam();
  auto input = make_input(static_cast<FillPattern>(pat), n);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  parallel::ThreadScope scope(threads);
  parallel::parallel_sort(input.begin(), input.end());
  EXPECT_EQ(input, expected);
}

INSTANTIATE_TEST_SUITE_P(
    PatternsThreadsSizes, ParallelSortTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1, 4, 8),
                       // straddle the serial-fallback cutoff (1 << 14)
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{1000},
                                         std::size_t{16383},
                                         std::size_t{16384},
                                         std::size_t{100000})));

TEST(ParallelSort, CustomComparatorDescending) {
  parallel::ThreadScope scope(8);
  auto input = make_input(FillPattern::kRandom, 50000);
  auto expected = input;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  parallel::parallel_sort(input.begin(), input.end(), std::greater<>{});
  EXPECT_EQ(input, expected);
}

TEST(ParallelSort, TotalOrderKeyIsThreadCountInvariant) {
  // With a total-order comparator the output must be byte-identical at
  // every thread count — this is what the CSR builder's dedupe relies on.
  auto base = make_input(FillPattern::kRandom, 60000);
  std::vector<std::vector<std::int64_t>> results;
  for (int t : {1, 2, 4, 8}) {
    parallel::ThreadScope scope(t);
    auto v = base;
    parallel::parallel_sort(v.begin(), v.end());
    results.push_back(std::move(v));
  }
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_EQ(results[i], results[0]) << "thread config " << i;
}

// --- bucket_scatter's sub-key: stable runs of whole keys, in key order ---

/// Ordered by (key, nbr); seq is the input that emitted it.
struct KeyedElem {
  std::uint64_t key;
  std::uint64_t nbr;
  std::uint64_t seq;
};

TEST(BucketScatter, SubKeyRunsAreStableWholeKeysInKeyOrder) {
  // Input i emits (a, b) and (b, a), as an undirected record emits two
  // arcs: keys repeat, and reach 2^40, so buckets cut wide key ranges.
  constexpr std::size_t n = 60000;
  SplitMix64 rng(99);
  std::vector<std::uint64_t> a(n);
  std::vector<std::uint64_t> b(n);
  std::uint64_t key_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_bounded(2048) << 29;
    b[i] = rng.next_bounded(std::uint64_t{1} << 40);
    key_max = std::max({key_max, a[i], b[i]});
  }
  const auto emit = [&](std::size_t i, auto&& put) {
    put(KeyedElem{a[i], b[i], i});
    put(KeyedElem{b[i], a[i], i});
  };
  const auto less = [](const KeyedElem& x, const KeyedElem& y) {
    return std::tie(x.key, x.nbr) < std::tie(y.key, y.nbr);
  };
  const auto key = [](const KeyedElem& x) { return x.key; };

  for (const int t : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads " << t);
    const std::size_t nb = parallel::sample_sort_buckets(2 * n, t);
    const parallel::Buckets<KeyedElem> out =
        parallel::bucket_scatter<KeyedElem>(n, t, nb, emit, less, key,
                                            key_max);
    ASSERT_EQ(out.items.size(), 2 * n);
    ASSERT_EQ(out.first.size(), nb + 1);
    const std::size_t subs = out.first.back();
    ASSERT_EQ(out.begin.size(), subs + 1);
    ASSERT_EQ(out.begin.front(), 0u);
    ASSERT_EQ(out.begin.back(), 2 * n);
    // The t histograms of one offset per sub-bucket fit in 1/16 of the
    // output's bytes (every input emits two, so the sample predicts it).
    EXPECT_LE(static_cast<std::size_t>(t) * subs * sizeof(std::size_t),
              out.items.size() * sizeof(KeyedElem) / 16);
    EXPECT_GT(subs, nb);

    std::vector<int> seen(n, 0);
    for (const KeyedElem& x : out.items) ++seen[x.seq];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 2),
              static_cast<std::ptrdiff_t>(n));

    const KeyedElem* prev_max = nullptr;  // the previous bucket's largest
    for (std::size_t bk = 0; bk < nb; ++bk) {
      bool any = false;
      std::uint64_t last_key = 0;  // the previous non-empty run's largest
      for (std::size_t k = out.first[bk]; k < out.first[bk + 1]; ++k) {
        const std::size_t lo = out.begin[k];
        const std::size_t hi = out.begin[k + 1];
        ASSERT_LE(lo, hi);
        if (lo == hi) continue;
        std::uint64_t lo_key = out.items[lo].key;
        std::uint64_t hi_key = lo_key;
        for (std::size_t i = lo; i < hi; ++i) {
          // Stable: a run holds its elements in emission order.
          if (i > lo) {
            ASSERT_LE(out.items[i - 1].seq, out.items[i].seq) << "run " << k;
          }
          lo_key = std::min(lo_key, out.items[i].key);
          hi_key = std::max(hi_key, out.items[i].key);
        }
        // A key fills one run of its bucket, and runs come in key order.
        if (any) {
          ASSERT_LT(last_key, lo_key) << "run " << k;
        }
        any = true;
        last_key = hi_key;
      }
      // Buckets come in comparator order.
      const auto lo = out.items.begin() +
                      static_cast<std::ptrdiff_t>(out.begin[out.first[bk]]);
      const auto hi = out.items.begin() + static_cast<std::ptrdiff_t>(
                                              out.begin[out.first[bk + 1]]);
      if (lo == hi) continue;
      if (prev_max != nullptr) {
        EXPECT_FALSE(less(*std::min_element(lo, hi, less), *prev_max))
            << "bucket " << bk;
      }
      prev_max = &*std::max_element(lo, hi, less);
    }

    // Without a sub-key every bucket is one run.
    const parallel::Buckets<KeyedElem> plain =
        parallel::bucket_scatter<KeyedElem>(n, t, nb, emit, less);
    EXPECT_EQ(plain.first.back(), nb);
    EXPECT_EQ(plain.begin.size(), nb + 1);
  }
}

// --- parallel_pack: stable compaction vs a serial filter ---

using PackCase =
    std::tuple<int /*threads*/, std::size_t /*n*/, int /*keep one in k*/>;

class ParallelPackTest : public ::testing::TestWithParam<PackCase> {};

TEST_P(ParallelPackTest, MatchesSerialFilter) {
  const auto [threads, n, k] = GetParam();
  // k = 0 keeps nothing, k = 1 everything, else a scattered one in k.
  const auto keep = [k = k](std::size_t i) {
    return k != 0 && ((i * 0x9E3779B97F4A7C15ULL) >> 40) % k == 0;
  };
  const auto make = [](std::size_t i) {
    return static_cast<std::int64_t>(3 * i + 1);
  };
  std::vector<std::int64_t> want;
  for (std::size_t i = 0; i < n; ++i)
    if (keep(i)) want.push_back(make(i));
  parallel::ThreadScope scope(threads);
  EXPECT_EQ(parallel::parallel_pack<std::int64_t>(n, keep, make), want);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsSizesDensities, ParallelPackTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4, 8),
        // straddle the serial cutoff
        ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{100},
                          parallel::detail::kParallelPackCutoff - 1,
                          parallel::detail::kParallelPackCutoff,
                          std::size_t{100000}),
        ::testing::Values(0, 1, 3, 1000)));

TEST(Parallel, ReduceMax) {
  parallel::ThreadScope scope(4);
  const std::int64_t n = 100000;
  const auto best = parallel::parallel_reduce_max<std::int64_t>(
      n, [](std::int64_t i) { return (i * 2654435761u) % 99991; });
  std::int64_t expected = 0;
  for (std::int64_t i = 0; i < n; ++i)
    expected = std::max(expected, (i * 2654435761u) % 99991);
  EXPECT_EQ(best, expected);
}

TEST(Timer, MeasuresNonNegativeAndResets) {
  WallTimer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ASSERT_GT(sink, 0.0);
  EXPECT_GT(t.elapsed_s(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace snap
