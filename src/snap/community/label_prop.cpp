#include "snap/community/label_prop.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "snap/community/modularity.hpp"
#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace snap {
namespace {

/// Per-worker scratch for neighbor-label weight accumulation (stamped dense
/// accumulator, cleared in O(touched) per vertex).
struct LabelScratch {
  std::vector<double> acc;
  std::vector<std::uint64_t> stamp;
  std::vector<vid_t> touched;
  std::uint64_t tick = 0;

  void init(vid_t n) {
    acc.assign(static_cast<std::size_t>(n), 0.0);
    stamp.assign(static_cast<std::size_t>(n), 0);
    touched.clear();
    tick = 0;
  }
};

struct Relabel {
  vid_t v;
  vid_t to;
};

/// Label v should adopt against the frozen label state, or kInvalidVid to
/// stay.  Adopt the label with maximal total neighbor edge weight iff it is
/// strictly heavier than the current label's weight; among equals the
/// smallest label id wins.  Accumulation runs in adjacency order and the
/// decision is a pure function of the frozen state — independent of visit
/// order and thread count.
vid_t decide_label(const CSRGraph& g, vid_t v, const std::vector<vid_t>& labels,
                   LabelScratch& sc) {
  const auto nb = g.neighbors(v);
  if (nb.empty()) return kInvalidVid;
  const auto ws = g.weights(v);
  ++sc.tick;
  sc.touched.clear();
  for (std::size_t i = 0; i < nb.size(); ++i) {
    const vid_t u = nb[i];
    if (u == v) continue;  // a self-loop endorses every choice equally
    const auto c = static_cast<std::size_t>(labels[static_cast<std::size_t>(u)]);
    if (sc.stamp[c] != sc.tick) {
      sc.stamp[c] = sc.tick;
      sc.acc[c] = 0.0;
      sc.touched.push_back(static_cast<vid_t>(c));
    }
    sc.acc[c] += ws[i];
  }
  const vid_t cur = labels[static_cast<std::size_t>(v)];
  const auto scur = static_cast<std::size_t>(cur);
  const double w_cur = sc.stamp[scur] == sc.tick ? sc.acc[scur] : 0.0;
  vid_t best = kInvalidVid;
  double best_w = w_cur;
  for (const vid_t c : sc.touched) {
    if (c == cur) continue;
    const double w = sc.acc[static_cast<std::size_t>(c)];
    if (w > best_w || (w == best_w && best != kInvalidVid && c < best)) {
      best_w = w;
      best = c;
    }
  }
  return best;
}

struct SweepStats {
  int sweeps = 0;
  eid_t moves = 0;
  bool converged = false;
};

/// Serial reference sweep loop — the oracle semantics written out literally.
SweepStats run_serial(const CSRGraph& g, std::vector<vid_t>& labels,
                      int max_sweeps, int num_buckets) {
  const vid_t n = g.num_vertices();
  LabelScratch sc;
  sc.init(n);
  std::vector<Relabel> pending;
  SweepStats st;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    eid_t sweep_moves = 0;
    for (int b = 0; b < num_buckets; ++b) {
      pending.clear();
      for (vid_t v = b; v < n; v += num_buckets) {
        const vid_t to = decide_label(g, v, labels, sc);
        if (to != kInvalidVid) pending.push_back({v, to});
      }
      for (const Relabel& r : pending)
        labels[static_cast<std::size_t>(r.v)] = r.to;
      sweep_moves += static_cast<eid_t>(pending.size());
    }
    ++st.sweeps;
    st.moves += sweep_moves;
    if (sweep_moves == 0) {
      st.converged = true;
      break;
    }
  }
  return st;
}

/// Parallel sweep loop: per sub-round, a thread team evaluates bucket
/// members against the frozen labels over contiguous vertex ranges and the
/// per-thread relabel lists are applied in thread order — ascending vertex
/// order, replaying exactly the serial oracle's update sequence.
SweepStats run_parallel(const CSRGraph& g, std::vector<vid_t>& labels,
                        int max_sweeps, int num_buckets) {
  const vid_t n = g.num_vertices();
  const int nt = std::max(1, parallel::num_threads());
  std::vector<LabelScratch> scratch(static_cast<std::size_t>(nt));
  std::vector<std::vector<Relabel>> local(static_cast<std::size_t>(nt));
  SweepStats st;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    eid_t sweep_moves = 0;
    for (int b = 0; b < num_buckets; ++b) {
      parallel::run_team(nt, [&](int t) {
        LabelScratch& sc = scratch[static_cast<std::size_t>(t)];
        if (sc.stamp.size() != static_cast<std::size_t>(n)) sc.init(n);
        std::vector<Relabel>& out = local[static_cast<std::size_t>(t)];
        out.clear();
        const vid_t lo = n * t / nt;
        const vid_t hi = n * (t + 1) / nt;
        const auto B = static_cast<vid_t>(num_buckets);
        vid_t v = lo + (((b - lo % B) % B + B) % B);
        for (; v < hi; v += B) {
          const vid_t to = decide_label(g, v, labels, sc);
          if (to != kInvalidVid) out.push_back({v, to});
        }
      });
      for (int t = 0; t < nt; ++t) {
        for (const Relabel& r : local[static_cast<std::size_t>(t)])
          labels[static_cast<std::size_t>(r.v)] = r.to;
        sweep_moves += static_cast<eid_t>(local[static_cast<std::size_t>(t)].size());
      }
    }
    ++st.sweeps;
    st.moves += sweep_moves;
    if (sweep_moves == 0) {
      st.converged = true;
      break;
    }
  }
  return st;
}

}  // namespace

LabelPropResult label_propagation(const CSRGraph& g,
                                  const LabelPropParams& params) {
  SNAP_ASSERT(!g.directed(),
              "label_propagation requires an undirected graph");
  WallTimer timer;
  const vid_t n = g.num_vertices();
  std::vector<vid_t> labels(static_cast<std::size_t>(n));
  std::iota(labels.begin(), labels.end(), vid_t{0});

  const SweepStats st =
      parallel::use_parallel(params.path, n, parallel::kParallelVertexCutoff)
          ? run_parallel(g, labels, params.max_sweeps, params.num_buckets)
          : run_serial(g, labels, params.max_sweeps, params.num_buckets);

  LabelPropResult res;
  res.sweeps = st.sweeps;
  res.converged = st.converged;
  res.community.clustering = normalize_labels(labels);
  res.community.modularity =
      modularity_ordered(g, res.community.clustering.membership);
  res.community.iterations = st.moves;
  res.community.seconds = timer.elapsed_s();
  SNAP_VALIDATE(g, res.community.clustering.membership,
                res.community.modularity);
  return res;
}

bool is_plurality_fixed_point(const CSRGraph& g,
                              const std::vector<vid_t>& labels) {
  const vid_t n = g.num_vertices();
  if (static_cast<vid_t>(labels.size()) != n) return false;
  for (const vid_t l : labels)
    if (l < 0 || l >= n) return false;
  LabelScratch sc;
  sc.init(n);
  for (vid_t v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    const auto ws = g.weights(v);
    ++sc.tick;
    sc.touched.clear();
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const vid_t u = nb[i];
      if (u == v) continue;
      const auto c =
          static_cast<std::size_t>(labels[static_cast<std::size_t>(u)]);
      if (sc.stamp[c] != sc.tick) {
        sc.stamp[c] = sc.tick;
        sc.acc[c] = 0.0;
        sc.touched.push_back(static_cast<vid_t>(c));
      }
      sc.acc[c] += ws[i];
    }
    const auto cur =
        static_cast<std::size_t>(labels[static_cast<std::size_t>(v)]);
    const double w_cur = sc.stamp[cur] == sc.tick ? sc.acc[cur] : 0.0;
    for (const vid_t c : sc.touched) {
      if (sc.acc[static_cast<std::size_t>(c)] > w_cur) return false;
    }
  }
  return true;
}

}  // namespace snap
