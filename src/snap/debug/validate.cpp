#include "snap/debug/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>

#include "snap/community/louvain.hpp"
#include "snap/community/modularity.hpp"
#include "snap/ds/dendrogram.hpp"
#include "snap/ds/union_find.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/util/sync.hpp"

namespace snap::debug {

// ---------------------------------------------------------------------------
// Access — private-state hooks (one-line friends in the structural headers).

const std::vector<eid_t>& Access::offsets(const CSRGraph& g) {
  return g.offsets_;
}
const std::vector<vid_t>& Access::adj(const CSRGraph& g) { return g.adj_; }
const std::vector<weight_t>& Access::weights(const CSRGraph& g) {
  return g.weights_;
}
const std::vector<weight_t>& Access::edge_weights(const CSRGraph& g) {
  return g.edge_weights_;
}
const std::vector<eid_t>& Access::arc_edge_ids(const CSRGraph& g) {
  return g.arc_edge_ids_;
}
bool Access::adjacency_sorted(const CSRGraph& g) { return g.sorted_; }
std::vector<vid_t>& Access::mutable_adj(CSRGraph& g) { return g.adj_; }
std::vector<eid_t>& Access::mutable_offsets(CSRGraph& g) {
  return g.offsets_;
}

const std::vector<std::vector<vid_t>>& Access::flat(const DynamicGraph& g) {
  return g.flat_;
}
const std::vector<Treap>& Access::treaps(const DynamicGraph& g) {
  return g.treap_;
}
eid_t Access::promote_threshold(const DynamicGraph& g) {
  return g.promote_threshold_;
}
eid_t Access::edge_count(const DynamicGraph& g) { return g.m_; }
std::vector<std::vector<vid_t>>& Access::mutable_flat(DynamicGraph& g) {
  return g.flat_;
}
eid_t& Access::mutable_edge_count(DynamicGraph& g) { return g.m_; }

const Treap::Node* Access::root(const Treap& t) { return t.root_; }
Treap::Node* Access::mutable_root(Treap& t) { return t.root_; }
std::size_t Access::stored_size(const Treap& t) { return t.size_; }

const std::vector<std::int64_t>& Access::parent(const UnionFind& uf) {
  return uf.parent_;
}
const std::vector<std::int64_t>& Access::set_sizes(const UnionFind& uf) {
  return uf.size_;
}
std::vector<std::int64_t>& Access::mutable_parent(UnionFind& uf) {
  return uf.parent_;
}

std::uint64_t Access::snapshot_epoch(const stream::StreamingGraph& sg) {
  sync::MutexLock lk(sg.snap_mu_);
  return sg.published_ ? sg.published_->epoch()
                       : static_cast<std::uint64_t>(-1);
}

std::vector<vid_t>& Access::mutable_louvain_membership(LouvainLevel& lvl) {
  return lvl.membership_;
}
std::vector<double>& Access::mutable_louvain_volume(LouvainLevel& lvl) {
  return lvl.volume_;
}

// ---------------------------------------------------------------------------
// Report plumbing.

std::string ValidationReport::to_string(std::size_t max_errors) const {
  std::ostringstream os;
  if (ok()) {
    os << subject << ": OK (" << checks_run << " checks)";
    return os.str();
  }
  os << subject << ": " << errors.size() << " violation(s)";
  const std::size_t shown = std::min(max_errors, errors.size());
  for (std::size_t i = 0; i < shown; ++i) os << "\n    - " << errors[i];
  if (shown < errors.size())
    os << "\n    - ... " << (errors.size() - shown) << " more";
  return os.str();
}

namespace {

/// Error accumulation is capped: a structurally shredded graph would
/// otherwise report one string per arc.
constexpr std::size_t kMaxRecordedErrors = 64;

struct Checker {
  ValidationReport& report;

  template <typename... Parts>
  bool require(bool cond, const Parts&... parts) {
    ++report.checks_run;
    if (!cond && report.errors.size() < kMaxRecordedErrors)
      report.errors.push_back(detail::format_message(parts...));
    return cond;
  }
};

/// Shared treap walk: BST bounds, max-heap priorities, hashed-priority
/// determinism, node count.  Returns the subtree node count.
std::size_t walk_treap(const Treap::Node* node, std::int64_t lo,
                       std::int64_t hi, bool has_lo, bool has_hi,
                       Checker& ck) {
  if (!node) return 0;
  ck.require(!has_lo || node->key > lo, "BST order: key ", node->key,
             " not above lower bound ", lo);
  ck.require(!has_hi || node->key < hi, "BST order: key ", node->key,
             " not below upper bound ", hi);
  ck.require(node->prio == snap::detail::treap_priority(node->key),
             "priority of key ", node->key,
             " does not match the deterministic hash (", node->prio, " vs ",
             snap::detail::treap_priority(node->key), ")");
  if (node->left)
    ck.require(node->prio >= node->left->prio, "heap order: key ", node->key,
               " has prio below left child ", node->left->key);
  if (node->right)
    ck.require(node->prio >= node->right->prio, "heap order: key ", node->key,
               " has prio below right child ", node->right->key);
  return 1 + walk_treap(node->left, lo, node->key, has_lo, true, ck) +
         walk_treap(node->right, node->key, hi, true, has_hi, ck);
}

/// Membership check of (u, v) against a DynamicGraph's raw adjacency state.
/// A linear scan of a flat row, so the mirror check does not lean on the
/// sortedness the validator is checking.
bool dyn_has_arc(const std::vector<std::vector<vid_t>>& flat,
                 const std::vector<Treap>& treaps, vid_t u, vid_t v) {
  const auto su = static_cast<std::size_t>(u);
  if (!treaps[su].empty()) return treaps[su].contains(v);
  const auto& row = flat[su];
  return std::find(row.begin(), row.end(), v) != row.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// CSRGraph.

ValidationReport validate(const CSRGraph& g) {
  ValidationReport report;
  report.subject = "CSRGraph";
  Checker ck{report};

  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const auto& offsets = Access::offsets(g);
  const auto& adj = Access::adj(g);
  const auto& weights = Access::weights(g);
  const auto& ids = Access::arc_edge_ids(g);
  const auto edges = g.edges();

  if (!ck.require(offsets.size() == static_cast<std::size_t>(n) + 1,
                  "offsets size ", offsets.size(), " != n+1 = ", n + 1))
    return report;
  ck.require(n >= 0, "negative vertex count ", n);
  ck.require(offsets.front() == 0, "offsets[0] = ", offsets.front(),
             ", expected 0");
  for (vid_t v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (!ck.require(offsets[sv] <= offsets[sv + 1], "offsets not monotone at ",
                    v, ": ", offsets[sv], " > ", offsets[sv + 1]))
      return report;
  }
  const auto arcs = static_cast<std::size_t>(offsets.back());
  if (!ck.require(arcs == adj.size(), "offsets cover ", arcs,
                  " arcs but adjacency holds ", adj.size()))
    return report;
  // Weights are stored only by a weighted graph: per arc and per edge.
  ck.require(weights.size() == (g.weighted() ? adj.size() : 0),
             "weight array size ", weights.size(), " for ", adj.size(),
             " arcs of a graph with weighted=", g.weighted());
  ck.require(Access::edge_weights(g).size() ==
                 (g.weighted() ? static_cast<std::size_t>(m) : 0),
             "edge weight array size ", Access::edge_weights(g).size(),
             " for m = ", m, " with weighted=", g.weighted());
  ck.require(ids.size() == adj.size(), "edge-id array size ", ids.size(),
             " != arc count ", adj.size());
  ck.require(edges.size() == static_cast<std::size_t>(m),
             "edge-endpoint list size ", edges.size(), " != m = ", m);
  const eid_t expected_arcs = g.directed() ? m : 2 * m;
  ck.require(static_cast<eid_t>(arcs) == expected_arcs, "arc count ", arcs,
             " != ", g.directed() ? "m" : "2m", " = ", expected_arcs);
  if (!report.ok()) return report;  // sizes wrong: element checks would UB

  // Logical edge endpoints (canonical u <= v when undirected).
  for (eid_t e = 0; e < m; ++e) {
    const Edge ed = edges[static_cast<std::size_t>(e)];
    ck.require(ed.u >= 0 && ed.u < n && ed.v >= 0 && ed.v < n, "edge ", e,
               " endpoints (", ed.u, ", ", ed.v, ") out of [0, ", n, ")");
    if (!g.directed())
      ck.require(ed.u <= ed.v, "undirected edge ", e, " not canonical: (",
                 ed.u, ", ", ed.v, ")");
  }

  // Per-arc: in-range targets, aligned edge ids/weights, sorted rows, and a
  // per-edge arc tally for the symmetry check (each logical edge must be
  // referenced by exactly one arc when directed, exactly two otherwise —
  // undirected self loops also store both arcs).  A byte per edge, held at
  // 3 once past the largest valid count, keeps the validator's own heap an
  // eighth of an edge-id array.
  std::vector<std::uint8_t> arc_tally(static_cast<std::size_t>(m), 0);
  const bool sorted = Access::adjacency_sorted(g);
  for (vid_t u = 0; u < n; ++u) {
    const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(u)]);
    const auto hi =
        static_cast<std::size_t>(offsets[static_cast<std::size_t>(u) + 1]);
    for (std::size_t a = lo; a < hi; ++a) {
      const vid_t v = adj[a];
      if (!ck.require(v >= 0 && v < n, "arc ", a, " of vertex ", u,
                      " targets out-of-range vertex ", v))
        continue;
      const eid_t e = ids[a];
      if (!ck.require(e >= 0 && e < m, "arc ", a, " of vertex ", u,
                      " carries out-of-range edge id ", e))
        continue;
      auto& tally = arc_tally[static_cast<std::size_t>(e)];
      tally = static_cast<std::uint8_t>(std::min(tally + 1, 3));
      const Edge ed = edges[static_cast<std::size_t>(e)];
      ck.require((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u),
                 "arc ", u, "->", v, " references edge ", e,
                 " with endpoints (", ed.u, ", ", ed.v, ")");
      ck.require(g.arc_weight(static_cast<eid_t>(a)) == ed.w, "arc ", u,
                 "->", v, " weight ", g.arc_weight(static_cast<eid_t>(a)),
                 " != edge ", e, " weight ", ed.w);
      if (sorted && a > lo) {
        const bool ordered = adj[a - 1] < v || (adj[a - 1] == v && ids[a - 1] <= e);
        ck.require(ordered, "row of vertex ", u,
                   " not sorted by (neighbor, edge id) at arc ", a, ": (",
                   adj[a - 1], ", ", ids[a - 1], ") then (", v, ", ", e, ")");
      }
    }
  }
  const int per_edge = g.directed() ? 1 : 2;
  for (eid_t e = 0; e < m; ++e) {
    const int tally = arc_tally[static_cast<std::size_t>(e)];
    ck.require(tally == per_edge, "edge ", e, " referenced by ", tally,
               tally == 3 ? " or more" : "", " arcs, expected ", per_edge,
               " (arc symmetry violated)");
  }
  return report;
}

// ---------------------------------------------------------------------------
// DynamicGraph.

ValidationReport validate(const DynamicGraph& g) {
  ValidationReport report;
  report.subject = "DynamicGraph";
  Checker ck{report};

  const vid_t n = g.num_vertices();
  const auto& flat = Access::flat(g);
  const auto& treaps = Access::treaps(g);
  const eid_t threshold = Access::promote_threshold(g);

  if (!ck.require(flat.size() == treaps.size(), "flat rows ", flat.size(),
                  " vs treap rows ", treaps.size()))
    return report;

  eid_t total_arcs = 0;
  eid_t self_arcs = 0;
  std::vector<vid_t> scratch;
  for (vid_t v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    const auto& row = flat[sv];
    const Treap& tr = treaps[sv];
    ck.require(row.empty() || tr.empty(), "vertex ", v,
               " holds both a flat row (", row.size(), ") and a treap (",
               tr.size(), ") — mode exclusivity violated");
    ck.require(static_cast<eid_t>(row.size()) <= threshold, "vertex ", v,
               " flat row size ", row.size(), " above promote threshold ",
               threshold);

    std::span<const vid_t> nbrs = row;
    if (!tr.empty()) {
      const ValidationReport tr_report = validate(tr);
      report.checks_run += tr_report.checks_run;
      for (const auto& err : tr_report.errors)
        ck.require(false, "treap of vertex ", v, ": ", err);
      scratch.clear();
      tr.for_each([&](std::int64_t k) {
        scratch.push_back(static_cast<vid_t>(k));
      });
      nbrs = scratch;
    } else {
      // A flat row is a strictly ascending set: no duplicate, no disorder.
      for (std::size_t i = 1; i < row.size(); ++i)
        ck.require(row[i - 1] < row[i], "vertex ", v,
                   " flat row not strictly ascending at ", i, ": ",
                   row[i - 1], " then ", row[i]);
    }
    total_arcs += static_cast<eid_t>(nbrs.size());
    for (vid_t u : nbrs) {
      if (!ck.require(u >= 0 && u < n, "vertex ", v,
                      " has out-of-range neighbor ", u))
        continue;
      if (u == v) ++self_arcs;
      if (!g.directed() && u != v)
        ck.require(dyn_has_arc(flat, treaps, u, v), "undirected arc ", v,
                   "->", u, " has no mirror ", u, "->", v);
    }
  }

  // A self loop stores one arc; every other undirected edge stores two.
  const eid_t expected_m =
      g.directed() ? total_arcs : (total_arcs + self_arcs) / 2;
  if (!g.directed())
    ck.require((total_arcs + self_arcs) % 2 == 0,
               "undirected arc total ", total_arcs, " (+", self_arcs,
               " self) is odd — asymmetric adjacency");
  ck.require(g.num_edges() == expected_m, "edge counter m = ", g.num_edges(),
             " but adjacency holds ", expected_m,
             " logical edges (degree bookkeeping drift)");
  return report;
}

// ---------------------------------------------------------------------------
// Treap.

ValidationReport validate(const Treap& t) {
  ValidationReport report;
  report.subject = "Treap";
  Checker ck{report};
  const std::size_t counted =
      walk_treap(Access::root(t), 0, 0, false, false, ck);
  ck.require(counted == Access::stored_size(t), "stored size ",
             Access::stored_size(t), " != node count ", counted);
  return report;
}

// ---------------------------------------------------------------------------
// UnionFind.

ValidationReport validate(const UnionFind& uf) {
  ValidationReport report;
  report.subject = "UnionFind";
  Checker ck{report};

  const auto& parent = Access::parent(uf);
  const auto& sizes = Access::set_sizes(uf);
  const auto n = static_cast<std::int64_t>(parent.size());
  if (!ck.require(sizes.size() == parent.size(), "size array length ",
                  sizes.size(), " != parent array length ", parent.size()))
    return report;

  for (std::int64_t i = 0; i < n; ++i)
    if (!ck.require(parent[static_cast<std::size_t>(i)] >= 0 &&
                        parent[static_cast<std::size_t>(i)] < n,
                    "parent[", i, "] = ",
                    parent[static_cast<std::size_t>(i)], " out of [0, ", n,
                    ")"))
      return report;

  // Chains must reach a root within n steps (acyclic forest); tally members
  // per root to cross-check the stored set sizes and num_sets.
  std::vector<std::int64_t> members(parent.size(), 0);
  std::int64_t roots = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t x = i;
    std::int64_t steps = 0;
    while (parent[static_cast<std::size_t>(x)] != x && steps <= n) {
      x = parent[static_cast<std::size_t>(x)];
      ++steps;
    }
    if (!ck.require(steps <= n, "parent chain from ", i,
                    " does not terminate (cycle)"))
      return report;
    ++members[static_cast<std::size_t>(x)];
  }
  for (std::int64_t r = 0; r < n; ++r) {
    const auto sr = static_cast<std::size_t>(r);
    if (parent[sr] != r) continue;
    ++roots;
    ck.require(sizes[sr] == members[sr], "root ", r, " stores size ",
               sizes[sr], " but owns ", members[sr], " members");
  }
  ck.require(static_cast<std::size_t>(roots) == uf.num_sets(), "num_sets = ",
             uf.num_sets(), " but the forest has ", roots, " roots");
  return report;
}

// ---------------------------------------------------------------------------
// MergeDendrogram.

ValidationReport validate(const MergeDendrogram& d) {
  ValidationReport report;
  report.subject = "MergeDendrogram";
  Checker ck{report};

  const std::int64_t n = d.n_leaves();
  const auto& merges = d.merges();
  ck.require(n >= 0, "negative leaf count ", n);
  ck.require(static_cast<std::int64_t>(merges.size()) <= std::max<std::int64_t>(n - 1, 0),
             merges.size(), " merges over ", n,
             " leaves (a laminar family admits at most n-1)");
  UnionFind uf(static_cast<std::size_t>(std::max<std::int64_t>(n, 0)));
  for (std::size_t k = 0; k < merges.size(); ++k) {
    const auto& mg = merges[k];
    if (!ck.require(mg.a >= 0 && mg.a < n && mg.b >= 0 && mg.b < n, "merge ",
                    k, " references out-of-range representatives (", mg.a,
                    ", ", mg.b, ")"))
      continue;
    ck.require(uf.unite(mg.a, mg.b), "merge ", k, " joins ", mg.a, " and ",
               mg.b,
               " which are already one cluster (merge sequence is not a "
               "laminar family over V)");
    ck.require(std::isfinite(mg.modularity), "merge ", k,
               " records non-finite modularity");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Community assignment.

ValidationReport validate(const CSRGraph& g, const std::vector<vid_t>& membership,
                          double reported_modularity, double tol) {
  ValidationReport report;
  report.subject = "community assignment";
  Checker ck{report};

  const vid_t n = g.num_vertices();
  if (!ck.require(membership.size() == static_cast<std::size_t>(n),
                  "membership size ", membership.size(), " != n = ", n))
    return report;
  vid_t max_label = -1;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t c = membership[static_cast<std::size_t>(v)];
    if (!ck.require(c >= 0 && c < n, "vertex ", v, " carries label ", c,
                    " out of [0, ", n, ")"))
      return report;
    max_label = std::max(max_label, c);
  }
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(max_label) + 1, 0);
  for (vid_t v = 0; v < n; ++v)
    seen[static_cast<std::size_t>(membership[static_cast<std::size_t>(v)])] = 1;
  for (vid_t c = 0; c <= max_label; ++c)
    ck.require(seen[static_cast<std::size_t>(c)] != 0, "label ", c,
               " unused — labels are not dense in [0, ", max_label + 1, ")");

  if (std::isfinite(reported_modularity)) {
    const double q = modularity(g, membership);
    ck.require(std::abs(q - reported_modularity) <= tol,
               "reported modularity ", reported_modularity,
               " does not match recomputation ", q, " (|diff| = ",
               std::abs(q - reported_modularity), " > tol ", tol, ")");
  }
  return report;
}

// ---------------------------------------------------------------------------
// LouvainLevel.

ValidationReport validate(const CSRGraph& g, const LouvainLevel& lvl,
                          double tol) {
  ValidationReport report;
  report.subject = "Louvain level";
  Checker ck{report};

  const vid_t n = g.num_vertices();
  const auto& membership = lvl.membership();
  const auto& volume = lvl.community_volume();
  const vid_t k = lvl.num_communities();
  if (!ck.require(membership.size() == static_cast<std::size_t>(n),
                  "membership size ", membership.size(), " != n = ", n))
    return report;
  if (!ck.require(k >= 0 && k <= n, "community count ", k, " out of [0, ", n,
                  "]"))
    return report;

  // Labels dense in [0, k): in range, every community inhabited.
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(k), 0);
  for (vid_t v = 0; v < n; ++v) {
    const vid_t c = membership[static_cast<std::size_t>(v)];
    if (!ck.require(c >= 0 && c < k, "vertex ", v, " carries label ", c,
                    " out of [0, ", k, ")"))
      return report;
    seen[static_cast<std::size_t>(c)] = 1;
  }
  for (vid_t c = 0; c < k; ++c)
    ck.require(seen[static_cast<std::size_t>(c)] != 0, "label ", c,
               " unused — labels are not dense in [0, ", k, ")");

  // Volume table against an independent recomputation: sum each vertex's
  // arc weights (a self-loop stores two arcs, so it counts twice — the
  // Louvain volume convention), accumulated in ascending vertex order.
  std::vector<double> recomputed(static_cast<std::size_t>(k), 0.0);
  for (vid_t v = 0; v < n; ++v) {
    double s = 0.0;
    for (const weight_t w : g.weights(v)) s += w;
    recomputed[static_cast<std::size_t>(
        membership[static_cast<std::size_t>(v)])] += s;
  }
  for (vid_t c = 0; c < k; ++c) {
    const auto sc = static_cast<std::size_t>(c);
    ck.require(std::abs(volume[sc] - recomputed[sc]) <= tol, "community ", c,
               " stores volume ", volume[sc],
               " but members' weighted degrees sum to ", recomputed[sc]);
  }

  // The contraction preserves volume: coarse vertex c's weighted degree
  // (self-loops stored twice) must equal community c's volume.
  const CSRGraph& coarse = lvl.coarse_graph();
  if (ck.require(coarse.num_vertices() == k, "coarse graph has ",
                 coarse.num_vertices(), " vertices, expected ", k,
                 " communities")) {
    for (vid_t c = 0; c < k; ++c) {
      double s = 0.0;
      for (const weight_t w : coarse.weights(c)) s += w;
      ck.require(std::abs(s - volume[static_cast<std::size_t>(c)]) <= tol,
                 "coarse vertex ", c, " has weighted degree ", s,
                 " but community volume is ",
                 volume[static_cast<std::size_t>(c)],
                 " (contraction lost weight)");
    }
  }

  // Level modularity against a thread-count-invariant recomputation.
  const double q = modularity_ordered(g, membership);
  ck.require(std::abs(q - lvl.modularity()) <= tol, "level modularity ",
             lvl.modularity(), " does not match recomputation ", q);
  return report;
}

// ---------------------------------------------------------------------------
// StreamingGraph.

ValidationReport validate(const stream::StreamingGraph& sg) {
  ValidationReport report = validate(sg.graph());
  report.subject = "StreamingGraph";
  Checker ck{report};

  const std::uint64_t cached = Access::snapshot_epoch(sg);
  const bool stale = cached == static_cast<std::uint64_t>(-1);
  ck.require(stale || cached <= sg.epoch(), "snapshot epoch ", cached,
             " is ahead of the graph epoch ", sg.epoch());
  // Pin accounting: every not-yet-reclaimed EpochSnapshot is counted by the
  // live gauge, so a published snapshot implies at least one live, and the
  // gauge can never go negative (a double-free would).
  ck.require(sg.live_snapshots() >= (stale ? 0 : 1),
             "live snapshot gauge ", sg.live_snapshots(),
             " inconsistent with published snapshot state");
  if (!stale && cached == sg.epoch()) {
    // Fresh cache: snapshot() returns it without rebuilding.
    const CSRGraph& snap = sg.snapshot();
    ck.require(snap.num_vertices() == sg.graph().num_vertices(),
               "cached snapshot has ", snap.num_vertices(),
               " vertices, live graph ", sg.graph().num_vertices());
    ck.require(snap.num_edges() == sg.graph().num_edges(),
               "cached snapshot has ", snap.num_edges(), " edges, live graph ",
               sg.graph().num_edges());
  }
  return report;
}

}  // namespace snap::debug
