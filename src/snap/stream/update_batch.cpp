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

  out.max_vid = parallel::parallel_reduce_max<vid_t>(
      nr,
      [&](std::size_t i) { return std::max(records_[i].u, records_[i].v); },
      vid_t{-1});

  // One sample sort whose scatter pass is the arc expansion: record i emits
  // u->v, plus v->u when undirected and u != v (a self loop is one arc), all
  // carrying seq = i.  Splitters compare (owner, nbr) only, so every record
  // of one arc lands in one bucket; one bucket (one thread, or a small
  // batch) runs on one thread.
  const auto emit = [&](std::size_t i, auto&& put) {
    const UpdateRecord& r = records_[i];
    const auto seq = static_cast<std::uint32_t>(i);
    put(ArcUpdate{r.u, r.v, seq, r.kind});
    if (!directed && r.u != r.v) put(ArcUpdate{r.v, r.u, seq, r.kind});
  };
  const auto same_arc_less = [](const ArcUpdate& a, const ArcUpdate& b) {
    return std::tie(a.owner, a.nbr) < std::tie(b.owner, b.nbr);
  };
  const int nt = parallel::num_threads();
  const std::size_t nb =
      parallel::sample_sort_buckets(nr * (directed ? 1 : 2), nt);
  parallel::Buckets<ArcUpdate> buckets = parallel::bucket_scatter<ArcUpdate>(
      nr, nb > 1 ? nt : 1, nb, emit, same_arc_less);
  std::vector<ArcUpdate>& arcs = buckets.items;
  const std::vector<std::size_t>& begin = buckets.begin;

  // Per bucket: sort by (owner, nbr, seq) — no two arcs share that key, so
  // the order is unique at every thread count — then keep the last
  // (highest-seq) arc of every (owner, nbr) run, packed at the bucket's front.
  const std::size_t nbk = begin.size() - 1;
  std::vector<std::size_t> kept(nbk);
  parallel::parallel_for_dynamic(
      nbk,
      [&](std::size_t b) {
        const auto lo = arcs.begin() + static_cast<std::ptrdiff_t>(begin[b]);
        const auto hi =
            arcs.begin() + static_cast<std::ptrdiff_t>(begin[b + 1]);
        std::sort(lo, hi, [](const ArcUpdate& x, const ArcUpdate& y) {
          return std::tie(x.owner, x.nbr, x.seq) <
                 std::tie(y.owner, y.nbr, y.seq);
        });
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
    if (size != begin[b]) {
      const auto from = arcs.begin() + static_cast<std::ptrdiff_t>(begin[b]);
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
