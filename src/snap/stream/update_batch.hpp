#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snap/graph/types.hpp"

namespace snap::stream {

enum class UpdateKind : std::uint8_t { kInsert = 0, kDelete = 1 };

/// One timestamped logical edge update, exactly as it arrived from the
/// stream.  `time` is a caller-supplied timestamp carried through for
/// observers/provenance; ordering within a batch is by arrival index.
struct UpdateRecord {
  vid_t u = kInvalidVid;
  vid_t v = kInvalidVid;
  std::uint64_t time = 0;
  UpdateKind kind = UpdateKind::kInsert;

  friend bool operator==(const UpdateRecord&, const UpdateRecord&) = default;
};

/// One arc-level update after canonicalization: 24 bytes.  `owner` is the
/// vertex whose adjacency the update lands in; undirected updates expand to
/// two arcs.
struct ArcUpdate {
  vid_t owner = kInvalidVid;
  vid_t nbr = kInvalidVid;
  /// Arrival index within the batch (the last-writer-wins key).
  std::uint32_t seq = 0;
  UpdateKind kind = UpdateKind::kInsert;
};

/// Canonical arc-level view of a batch: arcs sorted by (owner, nbr), at most
/// one surviving record per (owner, nbr) — the record with the highest
/// arrival index (last writer wins), so an insert and a delete of the same
/// edge in one batch resolve exactly as serial in-order application would.
struct CanonicalBatch {
  std::vector<ArcUpdate> arcs;
  vid_t max_vid = -1;           ///< largest vertex id referenced, -1 if none
  std::size_t raw_records = 0;  ///< batch size before canonicalization
};

/// A vector of timestamped insert/delete records, accumulated by the ingest
/// front-end and handed to StreamingGraph::apply as one unit.
class UpdateBatch {
 public:
  /// Queue insertion of edge (u, v).  Throws std::invalid_argument on
  /// negative vertex ids; ids beyond the target graph's current size make
  /// the graph grow on apply.
  void insert(vid_t u, vid_t v, std::uint64_t time = 0);

  /// Queue deletion of edge (u, v).
  void erase(vid_t u, vid_t v, std::uint64_t time = 0);

  /// Adopt `records` as the batch's contents, in order (the ingest
  /// decoder fills one exactly-sized array and hands it over).  Throws
  /// std::invalid_argument, as insert and erase do, on a negative vertex
  /// id, and then leaves the batch unchanged.
  void assign(std::vector<UpdateRecord> records);

  void clear() { records_.clear(); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const std::vector<UpdateRecord>& records() const {
    return records_;
  }

  /// Parallel canonicalization as one sample sort: the scatter pass
  /// (parallel::bucket_scatter) expands records into arcs straight into the
  /// one output array, bucketed on (owner, nbr) and, with the owner as its
  /// sub-key, cut into runs of whole owners that keep seq order.  Each
  /// bucket sorts its runs by (owner, nbr, seq) — a sortedness check, then
  /// insertion sort for a short run or std::sort for a long one — and keeps
  /// the last writer of every arc in place, and the kept slices are closed
  /// up.  The result is a pure function of the record sequence, so it is
  /// identical at every thread count.  Throws
  /// std::length_error for a batch of 2^32 or more records, whose arrival
  /// index would not fit ArcUpdate::seq.
  [[nodiscard]] CanonicalBatch canonicalize(bool directed) const;

 private:
  std::vector<UpdateRecord> records_;
};

}  // namespace snap::stream
