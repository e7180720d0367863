#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "snap/graph/types.hpp"

// ThreadSanitizer cannot see libgomp's synchronization (GCC does not ship an
// instrumented OpenMP runtime), so every fork/join and even the compiler's
// shared-variable handoff at a `#pragma omp parallel` is reported as a race.
// Under TSan, SNAP therefore runs its thread teams on std::thread — whose
// create/join the sanitizer models exactly — with the same manual
// worksharing the OpenMP path uses, so the kernels TSan checks are the
// kernels production runs.
#if defined(__SANITIZE_THREAD__)
#define SNAP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SNAP_TSAN 1
#endif
#endif

namespace snap::parallel {

/// Set the number of OpenMP threads used by subsequent SNAP kernels.
/// Thread count is process-global; the figure benches sweep it from a single
/// process exactly as the paper sweeps 1..32 threads on the T2000.
void set_num_threads(int t);

/// Number of threads SNAP kernels will use.
int num_threads();

/// Maximum hardware concurrency reported by the runtime.
int max_threads();

/// Below this many vertices a per-vertex sweep's fork/join costs more than
/// the sweep itself: the `kAuto` cutoff of Louvain, label propagation and
/// PageRank.
inline constexpr std::int64_t kParallelVertexCutoff = 1 << 12;

/// The one engine-selection policy: `kSerial` and `kParallel` force their
/// engine; `kAuto` runs parallel when `work` reaches `cutoff` and more than
/// one thread is available.
inline bool use_parallel(ExecPath path, std::int64_t work,
                         std::int64_t cutoff) {
  switch (path) {
    case ExecPath::kSerial:
      return false;
    case ExecPath::kParallel:
      return true;
    case ExecPath::kAuto:
      break;
  }
  return work >= cutoff && num_threads() > 1;
}

/// Run `body(t)` for every t in [0, nt) on a team of (up to) nt threads.
/// This is the single fork/join primitive behind every SNAP kernel: OpenMP
/// in normal builds, std::thread under TSan (see SNAP_TSAN above).  `body`
/// must not assume the calls are concurrent — if the runtime delivers fewer
/// threads, one thread runs several t values.
///
/// Lock discipline: team bodies are lock-free by design — every kernel and
/// scratch pool (FrontierPool, Brandes SourceScratch, per-thread prepare
/// buffers) hands each thread a disjoint slot indexed by t, and cross-slot
/// reads happen only after the join.  There is deliberately no sync::Mutex
/// anywhere on a kernel path; a team body that wants one is a design smell
/// (see docs/CORRECTNESS.md "Lock catalog & capability annotations").
/// Synchronization inside a team is limited to std::atomic (the dynamic
/// scheduler's cursor, CAS accumulation under the `reduction-note` lint).
template <typename F>
void run_team(int nt, F&& body) {
  if (nt <= 1) {
    for (int t = 0; t < nt; ++t) body(t);
    return;
  }
#if defined(SNAP_TSAN)
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(nt) - 1);
  for (int t = 1; t < nt; ++t) team.emplace_back([&body, t] { body(t); });
  body(0);
  for (auto& th : team) th.join();
#else
#pragma omp parallel num_threads(nt)
  {
    const int delivered = omp_get_num_threads();
    for (int t = omp_get_thread_num(); t < nt; t += delivered) body(t);
  }
#endif
}

/// Parallel for over [0, n) with static (contiguous-block) scheduling.
/// `f(i)` must be safe to run concurrently for distinct `i`.
template <typename Index, typename F>
void parallel_for(Index n, F&& f) {
  const int nt = num_threads();
  if (nt <= 1 || n <= 1) {
    for (Index i = 0; i < n; ++i) f(i);
    return;
  }
  run_team(nt, [&](int t) {
    const Index lo = n * t / nt;
    const Index hi = n * (t + 1) / nt;
    for (Index i = lo; i < hi; ++i) f(i);
  });
}

/// Parallel for with dynamic (chunked work-stealing) scheduling, for skewed
/// per-iteration work (e.g. iterating over vertices of a power-law graph).
template <typename Index, typename F>
void parallel_for_dynamic(Index n, F&& f, int chunk = 64) {
  const int nt = num_threads();
  if (nt <= 1 || n <= static_cast<Index>(chunk)) {
    for (Index i = 0; i < n; ++i) f(i);
    return;
  }
  std::atomic<Index> next{0};
  run_team(nt, [&](int) {
    for (;;) {
      const Index lo =
          next.fetch_add(static_cast<Index>(chunk), std::memory_order_relaxed);
      if (lo >= n) break;
      const Index hi = std::min(n, lo + static_cast<Index>(chunk));
      for (Index i = lo; i < hi; ++i) f(i);
    }
  });
}

/// Parallel sum-reduction of f(i) over [0, n).  Per-thread partials are
/// combined in thread order, so the result is deterministic even for
/// floating-point T.
template <typename T, typename Index, typename F>
T parallel_reduce_sum(Index n, F&& f) {
  const int nt = num_threads();
  if (nt <= 1 || n <= 1) {
    T total{};
    for (Index i = 0; i < n; ++i) total += f(i);
    return total;
  }
  std::vector<T> partial(static_cast<std::size_t>(nt), T{});
  run_team(nt, [&](int t) {
    const Index lo = n * t / nt;
    const Index hi = n * (t + 1) / nt;
    T acc{};
    for (Index i = lo; i < hi; ++i) acc += f(i);
    partial[static_cast<std::size_t>(t)] = acc;
  });
  T total{};
  for (const T& p : partial) total += p;
  return total;
}

/// Exclusive prefix sum of `in` into `out` (out[0] = 0, out[i] = sum in[0..i)).
/// `out` must have size n + 1; out[n] receives the grand total.
/// Runs a two-pass blocked scan in parallel.
template <typename T>
void exclusive_prefix_sum(const T* in, T* out, std::size_t n) {
  const int nt = std::max(1, num_threads());
  if (n < 4096 || nt == 1) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = acc;
      acc += in[i];
    }
    out[n] = acc;
    return;
  }
  const std::size_t chunk = (n + nt - 1) / nt;
  std::vector<T> block_sum(static_cast<std::size_t>(nt) + 1, T{});
  run_team(nt, [&](int t) {
    const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(t));
    const std::size_t hi = std::min(n, lo + chunk);
    T acc{};
    for (std::size_t i = lo; i < hi; ++i) acc += in[i];
    block_sum[static_cast<std::size_t>(t) + 1] = acc;
  });
  for (int b = 0; b < nt; ++b) block_sum[b + 1] += block_sum[b];
  out[n] = block_sum[static_cast<std::size_t>(nt)];
  run_team(nt, [&](int t) {
    const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(t));
    const std::size_t hi = std::min(n, lo + chunk);
    T run = block_sum[static_cast<std::size_t>(t)];
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = run;
      run += in[i];
    }
  });
}

template <typename T>
void exclusive_prefix_sum(const std::vector<T>& in, std::vector<T>& out) {
  out.resize(in.size() + 1);
  exclusive_prefix_sum(in.data(), out.data(), in.size());
}

namespace detail {
/// Below this many candidates parallel_pack runs on one thread.
inline constexpr std::size_t kParallelPackCutoff = 1 << 12;
}  // namespace detail

/// Stable compaction: `make(i)` for every i in [0, n) with `keep(i)`, in
/// index order.  Each thread counts the kept elements of its contiguous
/// block, one scan over the block counts places the blocks, and each thread
/// fills its slice — O(threads) scratch instead of a per-element flag and
/// offset array, and the same output at every thread count.  `keep` runs
/// twice per element and, like `make`, must be safe to call concurrently
/// for distinct i.
template <typename T, typename Keep, typename Make>
std::vector<T> parallel_pack(std::size_t n, Keep&& keep, Make&& make) {
  const int nt =
      n < detail::kParallelPackCutoff ? 1 : std::max(1, num_threads());
  const auto bound = [&](int t) {
    return n * static_cast<std::size_t>(t) / static_cast<std::size_t>(nt);
  };
  std::vector<std::size_t> start(static_cast<std::size_t>(nt) + 1, 0);
  run_team(nt, [&](int t) {
    const std::size_t hi = bound(t + 1);
    std::size_t kept = 0;
    for (std::size_t i = bound(t); i < hi; ++i)
      if (keep(i)) ++kept;
    start[static_cast<std::size_t>(t) + 1] = kept;
  });
  for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
    start[t + 1] += start[t];
  std::vector<T> out(start.back());
  run_team(nt, [&](int t) {
    const std::size_t hi = bound(t + 1);
    std::size_t at = start[static_cast<std::size_t>(t)];
    for (std::size_t i = bound(t); i < hi; ++i)
      if (keep(i)) out[at++] = make(i);
  });
  return out;
}

/// Parallel max-reduction of f(i) over [0, n) on a team of nt threads;
/// returns `identity` for n = 0.  Per-thread partials are combined in
/// thread order (deterministic).
template <typename T, typename Index, typename F>
T parallel_reduce_max(int nt, Index n, F&& f, T identity) {
  if (nt <= 1 || n <= 1) {
    T best = identity;
    for (Index i = 0; i < n; ++i) best = std::max(best, f(i));
    return best;
  }
  std::vector<T> partial(static_cast<std::size_t>(nt), identity);
  run_team(nt, [&](int t) {
    const Index lo = n * t / nt;
    const Index hi = n * (t + 1) / nt;
    T best = identity;
    for (Index i = lo; i < hi; ++i) best = std::max(best, f(i));
    partial[static_cast<std::size_t>(t)] = best;
  });
  T best = identity;
  for (const T& p : partial) best = std::max(best, p);
  return best;
}

/// parallel_reduce_max on every thread.
template <typename T, typename Index, typename F>
T parallel_reduce_max(Index n, F&& f, T identity = T{}) {
  return parallel_reduce_max<T>(num_threads(), n, std::forward<F>(f),
                                identity);
}

namespace detail {
/// Below this size the sample-sort scaffolding costs more than it saves.
inline constexpr std::size_t kParallelSortCutoff = 1 << 14;
}  // namespace detail

/// Bucket count of a sample sort over (about) n elements on nt threads: one
/// bucket on one thread or below detail::kParallelSortCutoff; otherwise a
/// few per thread, so the per-bucket sorts load-balance even when the key
/// distribution is skewed, capped so every bucket still has a few thousand
/// expected elements.
inline std::size_t sample_sort_buckets(std::size_t n, int nt) {
  if (nt <= 1 || n < detail::kParallelSortCutoff) return 1;
  return std::max<std::size_t>(
      2, std::min(static_cast<std::size_t>(nt) * 4,
                  n / (detail::kParallelSortCutoff / 4)));
}

/// Elements grouped by bucket, and each bucket by sub-bucket: sub-bucket k
/// is items[begin[k], begin[k + 1]), and bucket b is sub-buckets
/// [first[b], first[b + 1]).  Without a sub-key a bucket is one sub-bucket,
/// so begin[b] starts bucket b.
template <typename T>
struct Buckets {
  std::vector<T> items;
  std::vector<std::size_t> begin;
  std::vector<std::size_t> first;
};

/// The sub-key of a bucket_scatter that has none: every bucket is one
/// sub-bucket.
struct NoSubKey {
  template <typename T>
  std::uint64_t operator()(const T&) const {
    return 0;
  }
};

/// The scatter half of the sample sort, shared by parallel_sort and batch
/// canonicalization.  Input i of [0, n) produces the elements it hands to
/// `put` in `emit(i, put)` — one each for a sort, more for an expansion.
/// Deterministic oversample (the elements of evenly spaced inputs, no RNG)
/// -> up to nb - 1 splitters -> per-thread sub-bucket histograms over
/// contiguous input blocks -> one serial scan of the nt x S histogram
/// matrix -> scatter into sub-bucket slices of one output array, which is
/// the only O(n) allocation.  An element's bucket is the number of
/// splitters not ordered after it by `comp`, so elements comparing equal
/// share a bucket; with nb = 1 everything lands in bucket 0.
///
/// The optional sub-key `key` maps an element to an unsigned integer that
/// `comp` orders by first, and no key exceeds `key_max`.  Bucket b's keys
/// then lie between its splitters' keys (0 and key_max at the ends), and
/// that range is cut into D_b sub-buckets by the digit
/// (key - lo_b) >> shift_b, with the least shift that keeps D_b within an
/// equal share of the budget: the nt histograms of S = sum D_b offsets take
/// at most 1/16 of the output array's bytes, as the sample predicts them.
/// They are freed on return.  The S + 1 bounds returned, 1/nt of them, are
/// allocated while they live, so the scatter's peak scratch is (nt + 1) x S
/// offsets: at most 1/16 + 1/(16 nt) of the output, 1/8 at one thread.
/// Both passes walk the same contiguous input blocks, and thread t's slice
/// of a sub-bucket precedes thread t + 1's, so the scatter is stable: a
/// sub-bucket holds its elements in emission order.  Without a sub-key
/// every bucket is one sub-bucket (S = nb).
///
/// `emit` runs for each sampled input, then twice for every input (count,
/// then scatter) on nt threads, and must be safe to call concurrently for
/// distinct i.  Only the scatter pass takes ownership of what `put`
/// receives, so an emit may hand it `std::move` of an input element.
template <typename T, typename Emit, typename Compare,
          typename Key = NoSubKey>
Buckets<T> bucket_scatter(std::size_t n, int nt, std::size_t nb, Emit&& emit,
                          Compare comp, Key key = {},
                          std::uint64_t key_max = 0) {
  // The sample gives the splitters, and predicts how many elements the
  // inputs emit: the histograms' budget is a share of that output.
  std::vector<T> splitters;
  std::size_t predicted = 0;
  {
    const std::size_t s = std::min(n, nb * 32);
    std::vector<T> sample;
    sample.reserve(s);
    for (std::size_t k = 0; k < s; ++k)
      emit(k * n / s, [&](const T& x) { sample.push_back(x); });
    if (s > 0) predicted = n * sample.size() / s;
    std::sort(sample.begin(), sample.end(), comp);
    for (std::size_t j = 1; j < nb && !sample.empty(); ++j)
      splitters.push_back(sample[j * sample.size() / nb]);
  }
  const std::size_t buckets = splitters.size() + 1;
  const auto bucket_of = [&](const T& x) {
    return static_cast<std::size_t>(
        std::upper_bound(splitters.begin(), splitters.end(), x, comp) -
        splitters.begin());
  };

  // Cut each bucket's key range into at most `cap` digits, so the nt
  // histograms of S offsets take at most 1/16 of the output's bytes.
  Buckets<T> out;
  out.first.resize(buckets + 1);
  std::vector<std::uint64_t> lo(buckets);
  std::vector<unsigned> shift(buckets);
  const std::uint64_t cap = std::max<std::size_t>(
      1, predicted * sizeof(T) /
             (16 * sizeof(std::size_t) * static_cast<std::size_t>(nt)) /
             buckets);
  std::size_t subs = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    lo[b] = b == 0 ? 0 : key(splitters[b - 1]);
    const std::uint64_t range =
        (b + 1 == buckets ? key_max : key(splitters[b])) - lo[b];
    while (shift[b] < 63 && (range >> shift[b]) >= cap) ++shift[b];
    out.first[b] = subs;
    subs += static_cast<std::size_t>(range >> shift[b]) + 1;
  }
  out.first[buckets] = subs;
  const auto sub_of = [&](const T& x) {
    const std::size_t b = bucket_of(x);
    return out.first[b] +
           static_cast<std::size_t>((key(x) - lo[b]) >> shift[b]);
  };
  const auto block = [&](int t) {
    return n * static_cast<std::size_t>(t) / static_cast<std::size_t>(nt);
  };

  // Pass 1: per-thread sub-bucket histograms over contiguous input blocks.
  std::vector<std::size_t> slot(static_cast<std::size_t>(nt) * subs, 0);
  run_team(nt, [&](int t) {
    std::size_t* c = slot.data() + static_cast<std::size_t>(t) * subs;
    const std::size_t hi = block(t + 1);
    for (std::size_t i = block(t); i < hi; ++i)
      emit(i, [&](const T& x) { ++c[sub_of(x)]; });
  });

  // Scan the matrix sub-bucket-major, in place: slot[t][k] becomes where
  // thread t's slice of sub-bucket k starts.
  out.begin.resize(subs + 1);
  std::size_t run = 0;
  for (std::size_t k = 0; k < subs; ++k) {
    out.begin[k] = run;
    for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t) {
      const std::size_t count = slot[t * subs + k];
      slot[t * subs + k] = run;
      run += count;
    }
  }
  out.begin[subs] = run;

  // Pass 2: scatter into sub-bucket slices (threads own disjoint slices).
  out.items.resize(run);
  run_team(nt, [&](int t) {
    std::size_t* pos = slot.data() + static_cast<std::size_t>(t) * subs;
    const std::size_t hi = block(t + 1);
    for (std::size_t i = block(t); i < hi; ++i)
      emit(i, [&](auto&& x) {
        out.items[pos[sub_of(x)]++] = std::forward<decltype(x)>(x);
      });
  });
  return out;
}

/// Parallel sample sort.  Falls back to std::sort for small inputs or one
/// thread.  Not stable: like std::sort, elements comparing equal end up in
/// unspecified relative order — callers needing a reproducible layout (the
/// CSR builder's dedupe does) must pass a comparator that is a total order.
/// For a total-order comparator the output is the unique sorted sequence and
/// therefore identical at every thread count.
///
/// Pipeline (§3-style prefix-sum orchestration, same shape as the CSR build):
/// bucket_scatter into a scratch array, then an independent per-bucket
/// std::sort with dynamic scheduling (a few buckets per thread absorb
/// power-law key skew) that moves each bucket back in place.
template <typename RandomIt, typename Compare>
void parallel_sort(RandomIt first, RandomIt last, Compare comp) {
  using T = typename std::iterator_traits<RandomIt>::value_type;
  const std::size_t n = static_cast<std::size_t>(last - first);
  const int nt = num_threads();
  const std::size_t nb = sample_sort_buckets(n, nt);
  if (nb == 1) {
    std::sort(first, last, comp);
    return;
  }
  Buckets<T> tmp = bucket_scatter<T>(
      n, nt, nb,
      [&](std::size_t i, auto&& put) { put(std::move(first[i])); }, comp);
  parallel_for_dynamic(
      tmp.begin.size() - 1,
      [&](std::size_t b) {
        const auto lo = tmp.items.begin() +
                        static_cast<std::ptrdiff_t>(tmp.begin[b]);
        const auto hi = tmp.items.begin() +
                        static_cast<std::ptrdiff_t>(tmp.begin[b + 1]);
        std::sort(lo, hi, comp);
        std::move(lo, hi, first + static_cast<std::ptrdiff_t>(tmp.begin[b]));
      },
      /*chunk=*/1);
}

template <typename RandomIt>
void parallel_sort(RandomIt first, RandomIt last) {
  parallel_sort(first, last, std::less<>{});
}

/// Atomically set `target = max(target, value)`; returns true if updated.
template <typename T>
bool atomic_fetch_max(std::atomic<T>& target, T value) {
  T cur = target.load(std::memory_order_relaxed);
  while (cur < value) {
    if (target.compare_exchange_weak(cur, value, std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// Atomically set `target = min(target, value)`; returns true if updated.
template <typename T>
bool atomic_fetch_min(std::atomic<T>& target, T value) {
  T cur = target.load(std::memory_order_relaxed);
  while (value < cur) {
    if (target.compare_exchange_weak(cur, value, std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// Atomic add for doubles (compare-exchange loop; OpenMP atomics are scoped to
/// pragmas, this gives us a composable primitive).
inline void atomic_add(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
  }
}

/// RAII guard that overrides the SNAP thread count for a scope.
class ThreadScope {
 public:
  explicit ThreadScope(int t) : saved_(num_threads()) { set_num_threads(t); }
  ~ThreadScope() { set_num_threads(saved_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

}  // namespace snap::parallel
