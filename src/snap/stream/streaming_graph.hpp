#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "snap/debug/fwd.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/sync.hpp"

namespace snap::stream {

/// The effective (state-changing) logical edge changes of one applied batch,
/// handed to observers.  Lists hold canonical endpoint pairs (u <= v for
/// undirected graphs), sorted ascending, each edge at most once, and
/// `inserted` and `deleted` are disjoint — the last-writer-wins
/// canonicalization guarantees at most one surviving update per edge.
/// `graph` points at the post-batch state.  The lists exist only for
/// observers: a StreamingGraph with none registered builds neither.
struct AppliedBatch {
  std::uint64_t epoch = 0;
  vid_t num_vertices = 0;
  const DynamicGraph* graph = nullptr;
  std::vector<std::pair<vid_t, vid_t>> inserted;
  std::vector<std::pair<vid_t, vid_t>> deleted;
};

/// Observer contract: on_batch fires once per applied batch, after the graph
/// reached its post-batch state, in observer registration order, on the
/// applying thread.  Observers constructed over the same DynamicGraph the
/// StreamingGraph owns can therefore fold `inserted`/`deleted` into
/// incrementally-maintained analytics without ever rescanning the graph.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;
  virtual void on_batch(const AppliedBatch& batch) = 0;
};

/// What one apply() call did.
struct ApplyStats {
  std::size_t raw_records = 0;     ///< records in the incoming batch
  std::size_t canonical_arcs = 0;  ///< arcs surviving canonicalization
  std::size_t applied_inserts = 0; ///< logical edges actually inserted
  std::size_t applied_deletes = 0; ///< logical edges actually deleted
};

/// One immutable, refcounted epoch snapshot: the CSR image of the graph as
/// of `epoch()`.  Handed out by StreamingGraph::pin(); a handle keeps the
/// snapshot alive (RCU-style epoch reclamation — a superseded snapshot is
/// freed only when its pin count drops to zero, never in place under a
/// reader).  The object is immutable after construction, so any number of
/// threads can read `graph()` concurrently, including while the writer
/// applies the next batch.
class EpochSnapshot {
 public:
  EpochSnapshot(const EpochSnapshot&) = delete;
  EpochSnapshot& operator=(const EpochSnapshot&) = delete;
  ~EpochSnapshot();

  [[nodiscard]] const CSRGraph& graph() const { return csr_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  friend class StreamingGraph;
  EpochSnapshot(CSRGraph csr, std::uint64_t epoch,
                std::shared_ptr<std::atomic<std::int64_t>> live);

  CSRGraph csr_;
  std::uint64_t epoch_;
  // Shared with the owning StreamingGraph's live-snapshot gauge; holding it
  // by shared_ptr lets a pinned handle safely outlive the graph itself.
  std::shared_ptr<std::atomic<std::int64_t>> live_;
};

/// A pin on one epoch snapshot.  Copyable (each copy is another pin);
/// destruction unpins.  The pointee is const — snapshots are read-only by
/// construction.
using SnapshotHandle = std::shared_ptr<const EpochSnapshot>;

/// Batched, parallel edge updates over the §3 degree-hybrid DynamicGraph —
/// the streaming-ingest front door (PAPER §6's "topological analysis of
/// dynamic networks").
///
/// apply() canonicalizes the batch (see UpdateBatch::canonicalize) and then
/// applies it with updates grouped per owning vertex: every vertex's
/// adjacency is touched by exactly one thread, so there are no locks and the
/// post-batch graph — row contents, promotions and treap shapes — is
/// identical at any thread count.  Its edge set, and so its to_csr image,
/// equals serial one-edge-at-a-time application of the raw record sequence;
/// a group holds only each arc's last update, so which rows pass the
/// promote threshold, and become treaps, can differ from that path's.  apply()
/// consumes its batch and frees each stage's buffer once the next exists:
/// the records once canonicalized, the arcs once applied, both before an
/// eager publish allocates the new snapshot.
class StreamingGraph {
 public:
  explicit StreamingGraph(vid_t n = 0, bool directed = false,
                          eid_t promote_threshold = 128);
  explicit StreamingGraph(DynamicGraph graph);
  static StreamingGraph from_csr(const CSRGraph& g,
                                 eid_t promote_threshold = 128);

  [[nodiscard]] const DynamicGraph& graph() const { return graph_; }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Register a non-owning observer; it must outlive the StreamingGraph (or
  /// at least every subsequent apply()).
  void add_observer(StreamObserver* obs);

  /// Apply a batch in parallel; returns what actually changed.  Takes the
  /// batch by value and frees its records as soon as they are
  /// canonicalized: move a batch in to hold its records only once.
  ApplyStats apply(UpdateBatch batch);

  /// Same semantics on one thread (the benchable serial reference; also what
  /// apply() degrades to under parallel::set_num_threads(1)).
  ApplyStats apply_serial(UpdateBatch batch);

  /// Pin the current epoch snapshot.  The returned handle keeps that CSR
  /// image alive and immutable until the handle (and every copy) is
  /// dropped; superseded snapshots are reclaimed when their last pin goes
  /// away, so a reader can never observe a freed or in-place-mutated
  /// snapshot.
  ///
  /// Concurrency contract: with eager snapshots enabled
  /// (`set_eager_snapshots(true)` — the analytics-service mode), pin() is
  /// safe to call from any number of reader threads concurrently with the
  /// single writer running apply(); it returns the latest *published* epoch
  /// (snapshot isolation — a pin racing an in-flight apply sees the
  /// previous epoch) and never touches the mutating DynamicGraph.  In the
  /// default lazy mode, pin() materializes a stale snapshot on demand from
  /// the live graph and therefore must not run concurrently with apply()
  /// (the classic single-threaded analyze-between-batches pattern).
  [[nodiscard]] SnapshotHandle pin() const;

  /// Eager mode: every apply() materializes and publishes the new epoch's
  /// snapshot before returning (on the writer thread), which is what makes
  /// pin() concurrent-reader-safe.  Enabling publishes the current epoch
  /// immediately.  Costs one to_csr per batch — the price of serving
  /// readers a fresh immutable image per epoch.
  void set_eager_snapshots(bool eager);
  [[nodiscard]] bool eager_snapshots() const { return eager_; }

  /// Number of epoch snapshots currently alive (published + still-pinned
  /// superseded ones).  A gauge for tests and validators: after all handles
  /// are dropped it must fall back to at most 1 (the published snapshot).
  [[nodiscard]] std::int64_t live_snapshots() const {
    return live_->load(std::memory_order_acquire);
  }

  /// Epoch-cached CSR snapshot for the static kernels: rebuilt only when a
  /// batch has been applied since the last call, so interleaving many static
  /// analyses between batches costs one to_csr per epoch.  Single-threaded
  /// convenience over pin(): the returned reference stays valid until the
  /// next snapshot() call that observes a newer epoch (the handle backing it
  /// is cached internally).  Concurrent callers should hold their own pin()
  /// instead.
  const CSRGraph& snapshot() const;

 private:
  // Validators read the published-snapshot epoch.
  friend struct debug::Access;

  /// Takes the arcs by value, so they are freed when it returns.
  ApplyStats apply_canonical(CanonicalBatch cb);

  /// Apply one owner group (arcs of one owner, ascending by neighbour) and
  /// set eff[i] iff arc i changed the adjacency.  An empty adjacency is
  /// written once from the group's inserts, at its final size (a treap past
  /// the promote threshold); any other takes the arcs one at a time.
  void apply_group(std::span<const ArcUpdate> group, std::uint8_t* eff);

  /// Build the current epoch's CSR and swap it in as the published
  /// snapshot.  Reads graph_, so only the writer (or a quiescent caller)
  /// may run it; the swap itself happens under snap_mu_.
  SnapshotHandle publish_snapshot() const;

  // Writer-owned state: graph_, observers_ and eager_ are mutated only by
  // the (single) applying thread, never under snap_mu_ — the concurrency
  // contract is "one writer", not a lock.  Readers reach the graph solely
  // through pinned EpochSnapshots, which are immutable after publication.
  DynamicGraph graph_;
  std::vector<StreamObserver*> observers_;
  std::atomic<std::uint64_t> epoch_{0};
  bool eager_ = false;

  // Snapshot publication state.  snap_mu_ guards only the shared_ptr swap /
  // copy — readers hold it for a pointer copy, the writer for a pointer
  // store, so neither side can block the other for more than that.
  mutable sync::Mutex snap_mu_;  // guards: published_, legacy_
  mutable SnapshotHandle published_ GUARDED_BY(snap_mu_);
  /// Keeps snapshot()'s returned reference alive across epochs.
  mutable SnapshotHandle legacy_ GUARDED_BY(snap_mu_);
  std::shared_ptr<std::atomic<std::int64_t>> live_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
};

}  // namespace snap::stream
