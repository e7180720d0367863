#include "snap/stream/update_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

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

CanonicalBatch UpdateBatch::canonicalize(bool directed) const {
  CanonicalBatch out;
  out.raw_records = records_.size();
  const std::size_t nr = records_.size();
  if (nr == 0) return out;

  out.max_vid = parallel::parallel_reduce_max<vid_t>(
      nr,
      [&](std::size_t i) { return std::max(records_[i].u, records_[i].v); },
      vid_t{-1});

  // Arc expansion.  Undirected updates emit both directions; an undirected
  // self loop emits the same arc twice, which the dedupe below folds (both
  // copies share (owner, nbr, seq, kind), so the fold is order-free).
  const std::size_t stride = directed ? 1 : 2;
  std::vector<ArcUpdate> arcs(nr * stride);
  parallel::parallel_for(nr, [&](std::size_t i) {
    const UpdateRecord& r = records_[i];
    const auto seq = static_cast<eid_t>(i);
    arcs[i * stride] = {r.u, r.v, seq, r.kind};
    if (!directed) arcs[i * stride + 1] = {r.v, r.u, seq, r.kind};
  });

  // Total-order sort: (owner, nbr, seq[, kind]).  Records comparing equal are
  // only the self-loop twins, which are fully identical, so the sorted
  // sequence is unique and thread-count-invariant.
  parallel::parallel_sort(
      arcs.begin(), arcs.end(), [](const ArcUpdate& a, const ArcUpdate& b) {
        return std::tie(a.owner, a.nbr, a.seq, a.kind) <
               std::tie(b.owner, b.nbr, b.seq, b.kind);
      });

  // Last-writer-wins dedupe: keep the final (highest-seq) record of every
  // (owner, nbr) run.
  const std::size_t na = arcs.size();
  out.arcs = parallel::parallel_pack<ArcUpdate>(
      na,
      [&](std::size_t i) {
        return i + 1 == na || arcs[i + 1].owner != arcs[i].owner ||
               arcs[i + 1].nbr != arcs[i].nbr;
      },
      [&](std::size_t i) { return arcs[i]; });
  return out;
}

}  // namespace snap::stream
