#include "snap/stream/streaming_graph.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "snap/debug/validate.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/sync.hpp"

namespace snap::stream {

EpochSnapshot::EpochSnapshot(CSRGraph csr, std::uint64_t epoch,
                             std::shared_ptr<std::atomic<std::int64_t>> live)
    : csr_(std::move(csr)), epoch_(epoch), live_(std::move(live)) {
  live_->fetch_add(1, std::memory_order_acq_rel);
}

EpochSnapshot::~EpochSnapshot() {
  live_->fetch_sub(1, std::memory_order_acq_rel);
}

StreamingGraph::StreamingGraph(vid_t n, bool directed, eid_t promote_threshold)
    : graph_(n, directed, promote_threshold) {}

StreamingGraph::StreamingGraph(DynamicGraph graph)
    : graph_(std::move(graph)) {}

StreamingGraph StreamingGraph::from_csr(const CSRGraph& g,
                                        eid_t promote_threshold) {
  return StreamingGraph(DynamicGraph::from_csr(g, promote_threshold));
}

void StreamingGraph::add_observer(StreamObserver* obs) {
  if (obs) observers_.push_back(obs);
}

ApplyStats StreamingGraph::apply(UpdateBatch batch) {
  // The records are freed as soon as the arcs exist, and the arcs (owned by
  // apply_canonical's parameter) before the eager publish allocates the new
  // snapshot.
  CanonicalBatch cb = batch.canonicalize(graph_.directed());
  batch = UpdateBatch();
  const ApplyStats st = apply_canonical(std::move(cb));

  // Eager mode: materialize and publish this epoch's snapshot before apply
  // returns, on the writer thread.  Readers pinning concurrently keep
  // seeing the previous epoch until the pointer swap; their handles keep
  // superseded snapshots alive until unpinned (RCU-style reclamation).
  if (eager_) (void)publish_snapshot();
  return st;
}

ApplyStats StreamingGraph::apply_serial(UpdateBatch batch) {
  parallel::ThreadScope scope(1);
  return apply(std::move(batch));
}

ApplyStats StreamingGraph::apply_canonical(CanonicalBatch cb) {
  ApplyStats st;
  st.raw_records = cb.raw_records;
  st.canonical_arcs = cb.arcs.size();
  const bool directed = graph_.directed();
  if (cb.max_vid >= graph_.num_vertices())
    graph_.ensure_vertices(cb.max_vid + 1);

  const std::vector<ArcUpdate>& arcs = cb.arcs;
  const std::size_t na = arcs.size();

  AppliedBatch ab;
  if (na > 0) {
    // Group the sorted arc array by owner.  A group is the contiguous run of
    // updates landing in one vertex's adjacency; groups are applied with
    // dynamic scheduling (hub vertices can receive most of a batch), each
    // group entirely by one thread — the no-lock ownership discipline.
    std::vector<std::size_t> group_begin = parallel::parallel_pack<std::size_t>(
        na,
        [&](std::size_t i) {
          return i == 0 || arcs[i].owner != arcs[i - 1].owner;
        },
        [](std::size_t i) { return i; });
    const std::size_t ngroups = group_begin.size();
    group_begin.push_back(na);

    // Apply.  Every group lands in one row and is applied by one thread, in
    // neighbour order (see apply_group), so row contents, promotion points
    // and treap shapes are deterministic.
    //
    // Effective logical edge changes: for undirected graphs the two arcs of
    // an edge are always both effective or both not (the adjacency mirror
    // invariant plus symmetric canonicalization), so the owner <= nbr arc
    // stands for the edge.  Each group tallies its own, so counting them
    // costs no extra pass and no team of its own.
    const auto stands_for_edge = [&](const ArcUpdate& a) {
      return directed || a.owner <= a.nbr;
    };
    std::vector<std::uint8_t> eff(na, 0);
    std::vector<std::array<std::size_t, 2>> tally(ngroups);  // insert, delete
    parallel::parallel_for_dynamic(
        ngroups,
        [&](std::size_t g) {
          const std::size_t lo = group_begin[g];
          const std::size_t hi = group_begin[g + 1];
          apply_group(std::span(arcs).subspan(lo, hi - lo), eff.data() + lo);
          for (std::size_t i = lo; i < hi; ++i)
            if (eff[i] && stands_for_edge(arcs[i]))
              ++tally[g][arcs[i].kind == UpdateKind::kInsert ? 0 : 1];
        },
        /*chunk=*/8);
    for (const auto& [inserts, deletes] : tally) {
      st.applied_inserts += inserts;
      st.applied_deletes += deletes;
    }

    // The change lists exist only for observers.  Compaction keeps the
    // sorted (u, v) order.
    if (!observers_.empty()) {
      const auto effective = [&](UpdateKind kind) {
        return [&, kind](std::size_t i) {
          return eff[i] && arcs[i].kind == kind && stands_for_edge(arcs[i]);
        };
      };
      const auto endpoints = [&](std::size_t i) {
        return std::pair{arcs[i].owner, arcs[i].nbr};
      };
      ab.inserted = parallel::parallel_pack<std::pair<vid_t, vid_t>>(
          na, effective(UpdateKind::kInsert), endpoints);
      ab.deleted = parallel::parallel_pack<std::pair<vid_t, vid_t>>(
          na, effective(UpdateKind::kDelete), endpoints);
    }
    graph_.m_ += static_cast<eid_t>(st.applied_inserts) -
                 static_cast<eid_t>(st.applied_deletes);
  }

  // Post-batch structural check runs before observers see the new state, so
  // a corrupted graph is caught at the batch that broke it, not downstream.
  SNAP_VALIDATE(graph_);

  const std::uint64_t new_epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  ab.epoch = new_epoch;
  ab.num_vertices = graph_.num_vertices();
  ab.graph = &graph_;
  for (StreamObserver* obs : observers_) obs->on_batch(ab);
  return st;
}

void StreamingGraph::apply_group(std::span<const ArcUpdate> group,
                                 std::uint8_t* eff) {
  const vid_t u = group.front().owner;
  const auto at = static_cast<std::size_t>(u);
  const auto inserts_arc = [](const ArcUpdate& a) {
    return a.kind == UpdateKind::kInsert;
  };
  std::vector<vid_t>& row = graph_.flat_[at];
  if (!row.empty() || graph_.is_promoted(u)) {
    for (std::size_t i = 0; i < group.size(); ++i)
      eff[i] = inserts_arc(group[i]) ? graph_.insert_arc(u, group[i].nbr)
                                     : graph_.delete_arc(u, group[i].nbr);
    return;
  }

  // An empty adjacency (every row of a preload): each insert is effective
  // and each delete is not, and the inserted neighbours, ascending, are the
  // row, written once at its final size.
  std::size_t size = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    eff[i] = inserts_arc(group[i]);
    size += eff[i];
  }
  if (size == 0) return;
  std::vector<vid_t> filled;
  filled.reserve(size);
  for (std::size_t i = 0; i < group.size(); ++i)
    if (eff[i]) filled.push_back(group[i].nbr);
  if (static_cast<eid_t>(size) > graph_.promote_threshold_)
    graph_.treap_[at] = Treap::from_sorted(filled);
  else
    row = std::move(filled);
}

SnapshotHandle StreamingGraph::publish_snapshot() const {
  // Hidden contract: reads graph_, so only the applying thread (or a caller
  // with no concurrent writer) may enter.  The build happens outside the
  // lock — pinning readers are never blocked behind a to_csr.
  auto snap = std::shared_ptr<const EpochSnapshot>(
      new EpochSnapshot(graph_.to_csr(), epoch(), live_));
  sync::MutexLock lk(snap_mu_);
  published_ = snap;
  return snap;
}

SnapshotHandle StreamingGraph::pin() const {
  const std::uint64_t e = epoch();
  {
    sync::MutexLock lk(snap_mu_);
    // Eager mode serves whatever is currently published (snapshot
    // isolation: a pin racing an in-flight apply gets the previous epoch).
    // Lazy mode reuses the cache only when it matches the current epoch.
    if (published_ && (eager_ || published_->epoch() == e))
      return published_;
  }
  return publish_snapshot();
}

void StreamingGraph::set_eager_snapshots(bool eager) {
  eager_ = eager;
  // Publish immediately so concurrent pins always find a snapshot without
  // ever touching the live graph.
  if (eager_) (void)publish_snapshot();
}

const CSRGraph& StreamingGraph::snapshot() const {
  SnapshotHandle h = pin();
  bool refreshed = false;
  {
    sync::MutexLock lk(snap_mu_);
    refreshed = legacy_.get() != h.get();
    legacy_ = h;
  }
  // Validate only on refresh: the validator itself calls snapshot(), which
  // now short-circuits (same handle), so validation cannot recurse.
  if (refreshed) SNAP_VALIDATE(*this);
  return h->graph();
}

}  // namespace snap::stream
