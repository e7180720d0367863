#include "snap/stream/update_batch.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "snap/util/parallel.hpp"

namespace snap::stream {

namespace {

void check_ids(vid_t u, vid_t v) {
  if (u < 0 || v < 0)
    throw std::invalid_argument("UpdateBatch: negative vertex id");
}

/// Runs up to this long are insertion-sorted; longer ones go to std::sort.
constexpr std::ptrdiff_t kShortRun = 64;

/// Sort one run of arcs by (owner, nbr, seq).  A run arrives in seq order,
/// so a run of one owner whose neighbours came in ascending order is
/// already sorted, and the check is the whole sort.
void sort_run(ArcUpdate* lo, ArcUpdate* hi) {
  const auto less = [](const ArcUpdate& x, const ArcUpdate& y) {
    return std::tie(x.owner, x.nbr, x.seq) < std::tie(y.owner, y.nbr, y.seq);
  };
  ArcUpdate* it = std::is_sorted_until(lo, hi, less);
  if (it == hi) return;
  if (hi - lo > kShortRun) {
    std::sort(lo, hi, less);
    return;
  }
  // Insertion sort of the rest: [lo, it) is sorted.
  for (; it != hi; ++it) {
    if (!less(*it, it[-1])) continue;
    const ArcUpdate x = *it;
    ArcUpdate* j = it;
    do {
      *j = j[-1];
      --j;
    } while (j != lo && less(x, j[-1]));
    *j = x;
  }
}

}  // namespace

void UpdateBatch::insert(vid_t u, vid_t v, std::uint64_t time) {
  check_ids(u, v);
  records_.push_back({u, v, time, UpdateKind::kInsert});
}

void UpdateBatch::erase(vid_t u, vid_t v, std::uint64_t time) {
  check_ids(u, v);
  records_.push_back({u, v, time, UpdateKind::kDelete});
}

void UpdateBatch::assign(std::vector<UpdateRecord> records) {
  for (const UpdateRecord& r : records) check_ids(r.u, r.v);
  records_ = std::move(records);
}

CanonicalBatch UpdateBatch::canonicalize(bool directed) const {
  CanonicalBatch out;
  out.raw_records = records_.size();
  const std::size_t nr = records_.size();
  if (nr == 0) return out;
  if (nr >= std::size_t{1} << 32)
    throw std::length_error(
        "UpdateBatch::canonicalize: 2^32 or more records in one batch");

  // One sample sort whose scatter pass is the arc expansion: record i emits
  // u->v, plus v->u when undirected and u != v (a self loop is one arc), all
  // carrying seq = i.  Splitters compare (owner, nbr) only, so every record
  // of one arc lands in one bucket, and the owner is the scatter's sub-key,
  // so every owner's arcs land in one sub-bucket (a run) in seq order.  One
  // bucket (one thread, or a small batch) runs on one thread, the max_vid
  // scan included.
  const std::size_t nb = parallel::sample_sort_buckets(
      nr * (directed ? 1 : 2), parallel::num_threads());
  const int nt = nb > 1 ? parallel::num_threads() : 1;
  out.max_vid = parallel::parallel_reduce_max<vid_t>(
      nt, nr,
      [&](std::size_t i) { return std::max(records_[i].u, records_[i].v); },
      vid_t{-1});
  const auto emit = [&](std::size_t i, auto&& put) {
    const UpdateRecord& r = records_[i];
    const auto seq = static_cast<std::uint32_t>(i);
    put(ArcUpdate{r.u, r.v, seq, r.kind});
    if (!directed && r.u != r.v) put(ArcUpdate{r.v, r.u, seq, r.kind});
  };
  const auto same_arc_less = [](const ArcUpdate& a, const ArcUpdate& b) {
    return std::tie(a.owner, a.nbr) < std::tie(b.owner, b.nbr);
  };
  const auto owner = [](const ArcUpdate& a) {
    return static_cast<std::uint64_t>(a.owner);
  };
  parallel::Buckets<ArcUpdate> buckets = parallel::bucket_scatter<ArcUpdate>(
      nr, nt, nb, emit, same_arc_less, owner,
      static_cast<std::uint64_t>(out.max_vid));
  std::vector<ArcUpdate>& arcs = buckets.items;
  const std::vector<std::size_t>& begin = buckets.begin;
  const std::vector<std::size_t>& first = buckets.first;

  // Per bucket, one task: sort each run by (owner, nbr, seq) — no two arcs
  // share that key, so the order is unique at every thread count — which
  // sorts the bucket, then keep the last (highest-seq) arc of every
  // (owner, nbr) run, packed at the bucket's front.
  const std::size_t nbk = first.size() - 1;
  std::vector<std::size_t> kept(nbk);
  parallel::parallel_for_dynamic(
      nbk,
      [&](std::size_t b) {
        for (std::size_t k = first[b]; k < first[b + 1]; ++k)
          sort_run(arcs.data() + begin[k], arcs.data() + begin[k + 1]);
        const auto lo =
            arcs.begin() + static_cast<std::ptrdiff_t>(begin[first[b]]);
        const auto hi =
            arcs.begin() + static_cast<std::ptrdiff_t>(begin[first[b + 1]]);
        auto keep = lo;
        for (auto it = lo; it != hi; ++it)
          if (it + 1 == hi || it[1].owner != it->owner || it[1].nbr != it->nbr)
            *keep++ = *it;
        kept[b] = static_cast<std::size_t>(keep - lo);
      },
      /*chunk=*/1);

  // Close up the kept slices left to right (a slice never moves right, and
  // one already in place is skipped: std::move must not target its source).
  std::size_t size = 0;
  for (std::size_t b = 0; b < nbk; ++b) {
    const std::size_t at = begin[first[b]];
    if (size != at) {
      const auto from = arcs.begin() + static_cast<std::ptrdiff_t>(at);
      std::move(from, from + static_cast<std::ptrdiff_t>(kept[b]),
                arcs.begin() + static_cast<std::ptrdiff_t>(size));
    }
    size += kept[b];
  }
  arcs.resize(size);
  out.arcs = std::move(arcs);
  return out;
}

}  // namespace snap::stream
