#include "snap/community/louvain.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "snap/community/modularity.hpp"
#include "snap/debug/check.hpp"
#include "snap/debug/validate.hpp"
#include "snap/partition/coarsen.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace snap {
namespace {

/// Moves whose gain does not clear this threshold are rejected: float noise
/// around zero would otherwise drive endless label churn.
constexpr double kGainEps = 1e-12;

/// Per-worker scratch for neighbor-community weight accumulation: a dense
/// accumulator with a version stamp per slot, so clearing between vertices
/// is O(touched) instead of O(n).
struct MoveScratch {
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

struct Move {
  vid_t v;
  vid_t from;
  vid_t to;
};

struct MoveStats {
  int sweeps = 0;
  eid_t moves = 0;
};

/// ΔQ of relabeling a vertex of volume `deg_v` from its community (volume
/// `vol_cur`, connection weight `w_cur` excluding the vertex itself) to a
/// neighbor community (volume `vol_to`, connection weight `w_to`):
///
///   ΔQ = (w_to − w_cur)/W − deg_v (vol_to − vol_cur + deg_v)/(2W²)
///
/// with inv_w = 1/W and inv_2w2 = 1/(2W²) precomputed.  This single
/// expression is the arithmetic spec shared by the serial oracle and the
/// parallel engine: both round identically, so the differential suite
/// compares orchestration (bucketing, scratch reuse, delta merging), which
/// is where scheduling bugs live.
inline double move_gain(double w_to, double w_cur, double deg_v, double vol_to,
                        double vol_cur, double inv_w, double inv_2w2) {
  return (w_to - w_cur) * inv_w - deg_v * (vol_to - vol_cur + deg_v) * inv_2w2;
}

/// Best relabeling of v against the frozen (labels, vol) state, or
/// kInvalidVid if v stays.  Pure function of the frozen state: neighbor
/// weights accumulate in adjacency order and ties in gain break toward the
/// smallest community id, so the answer is independent of visit order and
/// thread count.
vid_t decide_move(const CSRGraph& g, vid_t v, const std::vector<vid_t>& labels,
                  const std::vector<double>& vol,
                  const std::vector<double>& w_deg, double inv_w,
                  double inv_2w2, MoveScratch& sc) {
  const auto nb = g.neighbors(v);
  if (nb.empty()) return kInvalidVid;
  const auto ws = g.weights(v);
  ++sc.tick;
  sc.touched.clear();
  for (std::size_t i = 0; i < nb.size(); ++i) {
    const vid_t u = nb[i];
    if (u == v) continue;  // the self-loop travels with v: it cancels in ΔQ
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
  const double deg_v = w_deg[static_cast<std::size_t>(v)];
  vid_t best = kInvalidVid;
  double best_gain = kGainEps;
  for (const vid_t c : sc.touched) {
    if (c == cur) continue;
    const double gain =
        move_gain(sc.acc[static_cast<std::size_t>(c)], w_cur, deg_v,
                  vol[static_cast<std::size_t>(c)],
                  vol[static_cast<std::size_t>(cur)], inv_w, inv_2w2);
    if (gain > best_gain || (gain == best_gain && best != kInvalidVid && c < best)) {
      best_gain = gain;
      best = c;
    }
  }
  return best;
}

/// Apply a batch of accepted moves (already in ascending vertex order) to
/// the shared label/volume state.  Volume deltas are float adds; applying
/// them in one fixed order is what keeps vol[] — and every later gain
/// computed from it — bitwise identical across paths and thread counts.
void apply_moves(const std::vector<Move>& moves, std::vector<vid_t>& labels,
                 std::vector<double>& vol, const std::vector<double>& w_deg) {
  for (const Move& mv : moves) {
    labels[static_cast<std::size_t>(mv.v)] = mv.to;
    const double d = w_deg[static_cast<std::size_t>(mv.v)];
    vol[static_cast<std::size_t>(mv.from)] -= d;
    vol[static_cast<std::size_t>(mv.to)] += d;
  }
}

/// Serial reference move phase — the oracle.  Straight loops, one scratch,
/// no parallel primitives: sub-round semantics written out literally.
MoveStats run_moves_serial(const CSRGraph& g, std::vector<vid_t>& labels,
                           std::vector<double>& vol,
                           const std::vector<double>& w_deg, double inv_w,
                           double inv_2w2, int max_sweeps, int num_buckets) {
  const vid_t n = g.num_vertices();
  MoveScratch sc;
  sc.init(n);
  std::vector<Move> pending;
  MoveStats st;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    eid_t sweep_moves = 0;
    for (int b = 0; b < num_buckets; ++b) {
      pending.clear();
      for (vid_t v = b; v < n; v += num_buckets) {
        const vid_t to =
            decide_move(g, v, labels, vol, w_deg, inv_w, inv_2w2, sc);
        if (to != kInvalidVid)
          pending.push_back({v, labels[static_cast<std::size_t>(v)], to});
      }
      apply_moves(pending, labels, vol, w_deg);
      sweep_moves += static_cast<eid_t>(pending.size());
    }
    ++st.sweeps;
    st.moves += sweep_moves;
    if (sweep_moves == 0) break;
  }
  return st;
}

/// Parallel move phase.  Each sub-round forks a team over contiguous vertex
/// ranges; every thread evaluates its bucket members against the frozen
/// state and records accepted moves in a per-thread delta list.  The lists
/// are merged in thread order — contiguous ranges make that ascending
/// vertex order — so the volume updates replay exactly the serial oracle's
/// sequence.
MoveStats run_moves_parallel(const CSRGraph& g, std::vector<vid_t>& labels,
                             std::vector<double>& vol,
                             const std::vector<double>& w_deg, double inv_w,
                             double inv_2w2, int max_sweeps, int num_buckets) {
  const vid_t n = g.num_vertices();
  const int nt = std::max(1, parallel::num_threads());
  std::vector<MoveScratch> scratch(static_cast<std::size_t>(nt));
  std::vector<std::vector<Move>> local(static_cast<std::size_t>(nt));
  MoveStats st;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    eid_t sweep_moves = 0;
    for (int b = 0; b < num_buckets; ++b) {
      parallel::run_team(nt, [&](int t) {
        MoveScratch& sc = scratch[static_cast<std::size_t>(t)];
        if (sc.stamp.size() != static_cast<std::size_t>(n)) sc.init(n);
        std::vector<Move>& out = local[static_cast<std::size_t>(t)];
        out.clear();
        const vid_t lo = n * t / nt;
        const vid_t hi = n * (t + 1) / nt;
        const auto B = static_cast<vid_t>(num_buckets);
        vid_t v = lo + (((b - lo % B) % B + B) % B);
        for (; v < hi; v += B) {
          const vid_t to =
              decide_move(g, v, labels, vol, w_deg, inv_w, inv_2w2, sc);
          if (to != kInvalidVid)
            out.push_back({v, labels[static_cast<std::size_t>(v)], to});
        }
      });
      for (int t = 0; t < nt; ++t) {
        apply_moves(local[static_cast<std::size_t>(t)], labels, vol, w_deg);
        sweep_moves += static_cast<eid_t>(local[static_cast<std::size_t>(t)].size());
      }
    }
    ++st.sweeps;
    st.moves += sweep_moves;
    if (sweep_moves == 0) break;
  }
  return st;
}

/// Weighted degree of every vertex (self-loop arcs counted as stored, i.e.
/// twice — the Louvain volume convention) plus their fixed-order total.
std::vector<double> vertex_volumes(const CSRGraph& g, double& two_w) {
  const vid_t n = g.num_vertices();
  std::vector<double> w_deg(static_cast<std::size_t>(n), 0.0);
  parallel::parallel_for(n, [&](vid_t v) {
    double s = 0.0;
    for (const weight_t w : g.weights(v)) s += w;
    w_deg[static_cast<std::size_t>(v)] = s;
  });
  // Serial ascending sum: bitwise identical at every thread count.
  two_w = 0.0;
  for (vid_t v = 0; v < n; ++v) two_w += w_deg[static_cast<std::size_t>(v)];
  return w_deg;
}

struct LevelOutcome {
  Clustering clustering;
  std::vector<double> volume;  ///< per dense community
  double q = 0.0;
  MoveStats stats;
};

/// Path dispatch: one move phase on `lg` with the engine `params` selects.
MoveStats run_moves(const CSRGraph& lg, const LouvainParams& params,
                    std::vector<vid_t>& labels, std::vector<double>& vol,
                    const std::vector<double>& w_deg, double inv_w,
                    double inv_2w2) {
  const auto engine = parallel::use_parallel(params.path, lg.num_vertices(),
                                             parallel::kParallelVertexCutoff)
                          ? run_moves_parallel
                          : run_moves_serial;
  return engine(lg, labels, vol, w_deg, inv_w, inv_2w2, params.max_sweeps,
                params.num_buckets);
}

LevelOutcome run_level(const CSRGraph& lg, const LouvainParams& params) {
  const vid_t n = lg.num_vertices();
  double two_w = 0.0;
  const std::vector<double> w_deg = vertex_volumes(lg, two_w);

  LevelOutcome out;
  std::vector<vid_t> labels(static_cast<std::size_t>(n));
  std::iota(labels.begin(), labels.end(), vid_t{0});
  if (two_w > 0.0) {
    std::vector<double> vol = w_deg;
    const double inv_w = 2.0 / two_w;                // 1/W with W = two_w/2
    const double inv_2w2 = 2.0 / (two_w * two_w);    // 1/(2W²)
    out.stats = run_moves(lg, params, labels, vol, w_deg, inv_w, inv_2w2);
  }
  out.clustering = normalize_labels(labels);
  out.volume.assign(static_cast<std::size_t>(out.clustering.num_clusters), 0.0);
  for (vid_t v = 0; v < n; ++v)
    out.volume[static_cast<std::size_t>(
        out.clustering.membership[static_cast<std::size_t>(v)])] +=
        w_deg[static_cast<std::size_t>(v)];
  out.q = modularity_ordered(lg, out.clustering.membership);
  return out;
}

}  // namespace

LouvainResult louvain(const CSRGraph& g, const LouvainParams& params) {
  SNAP_ASSERT(!g.directed(),
              "louvain requires an undirected graph (fold with as_undirected)");
  WallTimer timer;
  const vid_t n = g.num_vertices();

  LouvainResult res;
  // `lg` points into res.levels between iterations; reserving up front keeps
  // every coarse graph at a stable address for the lifetime of the loop.
  res.levels.reserve(static_cast<std::size_t>(std::max(0, params.max_levels)));
  res.community.dendrogram = MergeDendrogram(n);

  std::vector<vid_t> flat(static_cast<std::size_t>(n));
  std::iota(flat.begin(), flat.end(), vid_t{0});
  res.community.dendrogram.set_baseline(modularity_ordered(g, flat));

  // rep[c]: representative original vertex of level community c, used to
  // express each level's contraction as binary merges over the original
  // vertex set (the shared MergeDendrogram surface).
  std::vector<vid_t> rep = flat;
  std::vector<weight_t> vweight(static_cast<std::size_t>(n), 1.0);
  const CSRGraph* lg = &g;
  double last_q = res.community.dendrogram.baseline();
  eid_t total_moves = 0;

  for (int level = 0; level < params.max_levels; ++level) {
    LevelOutcome out = run_level(*lg, params);
    total_moves += out.stats.moves;
    const vid_t nl = lg->num_vertices();
    if (out.stats.moves == 0 || out.clustering.num_clusters == nl) break;

    // Dendrogram: merge each community's members onto its first member's
    // representative, communities and members both in ascending order.
    std::vector<vid_t> first_rep(
        static_cast<std::size_t>(out.clustering.num_clusters), kInvalidVid);
    for (vid_t v = 0; v < nl; ++v) {
      const auto c = static_cast<std::size_t>(
          out.clustering.membership[static_cast<std::size_t>(v)]);
      if (first_rep[c] == kInvalidVid)
        first_rep[c] = rep[static_cast<std::size_t>(v)];
      else
        res.community.dendrogram.record_merge(
            first_rep[c], rep[static_cast<std::size_t>(v)], out.q);
    }

    CoarseLevel contracted =
        contract_by_map(*lg, out.clustering.membership,
                        out.clustering.num_clusters, vweight,
                        /*keep_self_loops=*/true);
    vweight = std::move(contracted.vertex_weight);
    res.levels.emplace_back(std::move(out.clustering.membership),
                            std::move(out.volume),
                            std::move(contracted.graph), out.q,
                            out.stats.sweeps, out.stats.moves);
    const LouvainLevel& lvl = res.levels.back();
    SNAP_VALIDATE(*lg, lvl);

    parallel::parallel_for(n, [&](vid_t v) {
      flat[static_cast<std::size_t>(v)] =
          lvl.membership()[static_cast<std::size_t>(
              flat[static_cast<std::size_t>(v)])];
    });
    rep = std::move(first_rep);
    lg = &lvl.coarse_graph();

    const double gain = lvl.modularity() - last_q;
    last_q = lvl.modularity();
    if (gain < params.min_level_gain) break;
  }

  if (params.refine && !res.levels.empty()) {
    // Refinement: the bucketed move phase once more, on the original graph,
    // seeded with the flat membership.  Same engine, same determinism story.
    double two_w = 0.0;
    const std::vector<double> w_deg = vertex_volumes(g, two_w);
    if (two_w > 0.0) {
      std::vector<double> vol(static_cast<std::size_t>(n), 0.0);
      for (vid_t v = 0; v < n; ++v)
        vol[static_cast<std::size_t>(flat[static_cast<std::size_t>(v)])] +=
            w_deg[static_cast<std::size_t>(v)];
      const double inv_w = 2.0 / two_w;
      const double inv_2w2 = 2.0 / (two_w * two_w);
      const MoveStats st =
          run_moves(g, params, flat, vol, w_deg, inv_w, inv_2w2);
      res.refine_moves = st.moves;
      total_moves += st.moves;
    }
  }

  res.community.clustering = normalize_labels(flat);
  res.community.modularity =
      modularity_ordered(g, res.community.clustering.membership);
  res.community.iterations = total_moves;
  res.community.seconds = timer.elapsed_s();
  SNAP_VALIDATE(g, res.community.clustering.membership,
                res.community.modularity);
  SNAP_VALIDATE(res.community.dendrogram);
  return res;
}

}  // namespace snap
