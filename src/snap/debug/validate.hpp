#pragma once

// Structural invariant validators (§3/§4 data representations).
//
// Each overload of `validate()` walks one structure and returns a
// ValidationReport listing every violated invariant with enough context to
// debug it (vertex ids, offsets, expected vs actual values).  Validators are
// pure observers — they never mutate, never abort; aborting is the job of
// the SNAP_VALIDATE macro below, which is compiled in at SNAP_CHECK_LEVEL=2
// and wired as a postcondition into the builders, kernels and stream-apply
// paths (see docs/CORRECTNESS.md for the catalog).

#include <cstdint>
#include <string>
#include <vector>

#include "snap/debug/check.hpp"
#include "snap/graph/types.hpp"

namespace snap {

class CSRGraph;
class DynamicGraph;
class UnionFind;
class MergeDendrogram;
class LouvainLevel;
struct ExchangeLedger;

namespace stream {
class StreamingGraph;
}  // namespace stream

namespace debug {

/// Outcome of one validate() call: the subject name, every violation found
/// (capped in to_string so a corrupt 10M-row graph stays readable), and how
/// many individual checks ran.
struct ValidationReport {
  std::string subject;
  std::vector<std::string> errors;
  std::size_t checks_run = 0;

  [[nodiscard]] bool ok() const { return errors.empty(); }

  /// "<subject>: OK (<n> checks)" or "<subject>: <k> violation(s): ..." with
  /// at most `max_errors` listed.
  [[nodiscard]] std::string to_string(std::size_t max_errors = 8) const;
};

/// Private-state accessor befriended by the structural containers.  Methods
/// are defined in validate.cpp; the mutable_* members exist solely for the
/// mutation tests that corrupt a structure to prove its validator catches it.
struct Access {
  // CSRGraph
  static const std::vector<eid_t>& offsets(const CSRGraph& g);
  static const std::vector<vid_t>& adj(const CSRGraph& g);
  static const std::vector<weight_t>& weights(const CSRGraph& g);
  static const std::vector<weight_t>& edge_weights(const CSRGraph& g);
  static const std::vector<eid_t>& arc_edge_ids(const CSRGraph& g);
  static bool adjacency_sorted(const CSRGraph& g);
  static std::vector<vid_t>& mutable_adj(CSRGraph& g);
  static std::vector<eid_t>& mutable_offsets(CSRGraph& g);

  // DynamicGraph
  static const std::vector<std::vector<vid_t>>& rows(const DynamicGraph& g);
  static eid_t edge_count(const DynamicGraph& g);
  static std::vector<std::vector<vid_t>>& mutable_rows(DynamicGraph& g);
  static eid_t& mutable_edge_count(DynamicGraph& g);

  // UnionFind
  static const std::vector<std::int64_t>& parent(const UnionFind& uf);
  static const std::vector<std::int64_t>& set_sizes(const UnionFind& uf);
  static std::vector<std::int64_t>& mutable_parent(UnionFind& uf);

  // StreamingGraph
  static std::uint64_t snapshot_epoch(const stream::StreamingGraph& sg);

  // LouvainLevel
  static std::vector<vid_t>& mutable_louvain_membership(LouvainLevel& lvl);
  static std::vector<double>& mutable_louvain_volume(LouvainLevel& lvl);

  // Exchange<Msg> (snap/partition/exchange.hpp).  Templated and inline:
  // Exchange is a class template, so the usual out-of-line accessor per
  // concrete type cannot work.  The mutation tests use these to corrupt a
  // channel or its ledger and prove the exchange validator catches it.
  template <typename Exchange>
  static ExchangeLedger& mutable_exchange_ledger(Exchange& ex) {
    return ex.ledger_;
  }
  template <typename Exchange>
  static auto& mutable_exchange_channel(Exchange& ex, int src, int dst) {
    return ex.box_[ex.channel_index(src, dst)];
  }
};

/// CSR arrays: monotone offsets covering the adjacency exactly, in-range
/// (and, when built sorted, sorted) neighbor rows, per-arc weight/edge-id
/// alignment, undirected arc symmetry through the logical edge list, and
/// weighted-flag consistency.
[[nodiscard]] ValidationReport validate(const CSRGraph& g);

/// Dynamic adjacency: every row in range and strictly ascending, undirected
/// mirror-arc symmetry (one binary search per arc in a row that passed the
/// order check), and the m_ edge counter against a full arc recount.
[[nodiscard]] ValidationReport validate(const DynamicGraph& g);

/// Union-find forest: parents in range, chains acyclic and terminating,
/// per-root stored sizes matching actual member counts, num_sets == number
/// of roots.
[[nodiscard]] ValidationReport validate(const UnionFind& uf);

/// Merge dendrogram: representatives in [0, n), and the merge sequence
/// replayed through a union-find joins two *distinct* clusters at every
/// step — i.e. the recorded merges form a laminar family over a partition
/// of V (at most n-1 merges).
[[nodiscard]] ValidationReport validate(const MergeDendrogram& d);

/// Community assignment over g: labels dense in [0, k), every vertex
/// labeled, and (when `reported_modularity` is finite) an independent
/// modularity recomputation matching it to `tol`.
[[nodiscard]] ValidationReport validate(const CSRGraph& g,
                                        const std::vector<vid_t>& membership,
                                        double reported_modularity,
                                        double tol = 1e-9);

/// One Louvain hierarchy level against the fine graph it was computed on:
/// labels dense in [0, num_communities), the community-volume table matching
/// an independent ascending-vertex recomputation of member weighted degrees,
/// the coarse graph's per-vertex weighted degrees matching the volume table
/// (contraction preserves volume), and the recorded level modularity matching
/// a thread-count-invariant recomputation.
[[nodiscard]] ValidationReport validate(const CSRGraph& g,
                                        const LouvainLevel& lvl,
                                        double tol = 1e-6);

/// Streaming engine: the wrapped DynamicGraph validates, and the published
/// snapshot (when fresh) agrees with the live graph's vertex/edge counts.
[[nodiscard]] ValidationReport validate(const stream::StreamingGraph& sg);

}  // namespace debug
}  // namespace snap

// Expensive-tier structural validation: run `validate(...)` and abort with
// the full report on any violation.  Compiles to a dead branch below
// SNAP_CHECK_LEVEL=2, so it can sit in hot builder/kernel paths for free.
#if SNAP_CHECK_LEVEL >= 2
#define SNAP_VALIDATE(...)                                                  \
  do {                                                                      \
    const ::snap::debug::ValidationReport snap_validate_report_ =           \
        ::snap::debug::validate(__VA_ARGS__);                               \
    if (!snap_validate_report_.ok()) [[unlikely]] {                         \
      ::snap::debug::detail::check_fail("SNAP_VALIDATE", #__VA_ARGS__,      \
                                        __FILE__, __LINE__,                 \
                                        snap_validate_report_.to_string()); \
    }                                                                       \
  } while (false)
#else
#define SNAP_VALIDATE(...)                                                  \
  do {                                                                      \
    if (false) {                                                            \
      (void)::snap::debug::validate(__VA_ARGS__);                           \
    }                                                                       \
  } while (false)
#endif
