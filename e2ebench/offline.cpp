#include "offline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "snap/centrality/betweenness.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/modularity.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/partition/partitioned_csr.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

using snap::CSRGraph;
using snap::eid_t;
using snap::vid_t;

namespace {

enum Kernel { kBfs, kCc, kPageRank, kLouvain, kNumKernels };
constexpr const char* kKernelNames[kNumKernels] = {"bfs", "cc", "pagerank",
                                                   "louvain"};

template <typename T>
std::uint64_t digest(std::uint64_t h, const std::vector<T>& v) {
  static_assert(sizeof(T) == 8);
  for (const T& x : v) {
    std::uint64_t w = 0;
    std::memcpy(&w, &x, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}

snap::PageRankParams pagerank_params() {
  snap::PageRankParams p;
  p.max_iters = OfflinePipeline::kPageRankIters;
  p.tol = 0.0;  // fixed work: every pass runs exactly kPageRankIters
  return p;
}

/// Modelled bytes one PageRank iteration moves: the offsets twice and the
/// adjacency once, one 8-byte rank gather per arc, and seven n-length
/// 8-byte array sweeps (scatter, gather, kept-sum and settle).
double pagerank_bytes_per_iter(const CSRGraph& g) {
  return 16.0 * static_cast<double>(g.num_arcs()) +
         72.0 * static_cast<double>(g.num_vertices());
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct PassOutputs {
  PassTimes times;
  std::uint64_t digests[kNumKernels] = {};
  std::vector<double> bc;
};

/// The pass itself.  `on_bfs` sees each search's result after its timer
/// stopped (the reference pass checks distances there); the digests are
/// also computed outside the timed calls.
template <typename OnBfs, typename OnRest>
PassOutputs run_pass(const CSRGraph& g, const std::vector<vid_t>& bfs_sources,
                     const std::vector<vid_t>& bc_sources, OnBfs&& on_bfs,
                     OnRest&& on_rest) {
  const auto start = Clock::now();
  PassOutputs out;
  PassTimes& t = out.times;
  ScopedSpan pass_span("pass", Layer::kBench);
  for (std::size_t i = 0; i < bfs_sources.size(); ++i) {
    const auto t0 = Clock::now();
    snap::BFSResult r;
    {
      ScopedSpan s("bfs", Layer::kKernels);
      r = snap::bfs(g, bfs_sources[i]);
    }
    t.bfs_s += since(t0);
    out.digests[kBfs] = digest(out.digests[kBfs], r.dist);
    on_bfs(i, r);
  }
  auto t0 = Clock::now();
  snap::Components comps;
  {
    ScopedSpan s("connected_components", Layer::kKernels);
    comps = snap::connected_components(g);
  }
  t.cc_s = since(t0);
  out.digests[kCc] = digest(0, comps.label);

  t0 = Clock::now();
  snap::PageRankResult pr;
  {
    ScopedSpan s("pagerank", Layer::kKernels);
    pr = snap::pagerank(g, pagerank_params());
  }
  t.pagerank_s = since(t0);
  out.digests[kPageRank] = digest(0, pr.mass);

  t0 = Clock::now();
  {
    ScopedSpan s("approx_vertex_betweenness", Layer::kCentrality);
    out.bc = snap::approx_vertex_betweenness(g, bc_sources);
  }
  t.bc_s = since(t0);

  t0 = Clock::now();
  snap::LouvainResult lv;
  {
    ScopedSpan s("louvain", Layer::kCommunity);
    lv = snap::louvain(g);
  }
  t.louvain_s = since(t0);
  out.digests[kLouvain] = digest(0, lv.community.clustering.membership);
  out.digests[kLouvain] = digest(
      out.digests[kLouvain], std::vector<double>{lv.community.modularity});

  t.pass_s = t.bfs_s + t.cc_s + t.pagerank_s + t.bc_s + t.louvain_s;
  on_rest(comps, pr, lv);
  t.wall_s = since(start);
  return out;
}

}  // namespace

OfflinePipeline::OfflinePipeline(const CSRGraph& g, std::uint64_t seed)
    : g_(g) {
  const snap::Components comps = snap::connected_components(g);
  const vid_t giant = comps.giant();
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    if (comps.label[static_cast<std::size_t>(v)] == giant)
      giant_edges_ += g.degree(v);
  giant_edges_ /= 2;

  snap::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x0ff1ce);
  auto draw = [&](std::vector<vid_t>& out, int count) {
    while (static_cast<int>(out.size()) < count) {
      const auto v = static_cast<vid_t>(
          rng.next_bounded(static_cast<std::uint64_t>(g.num_vertices())));
      if (comps.label[static_cast<std::size_t>(v)] != giant) continue;
      if (std::find(out.begin(), out.end(), v) != out.end()) continue;
      out.push_back(v);
    }
  };
  draw(bfs_sources_, kBfsSources);
  draw(bc_sources_, kBcSources);
}

void OfflinePipeline::reference_pass(CheckLog& log) {
  const PassOutputs out = run_pass(
      g_, bfs_sources_, bc_sources_,
      [&](std::size_t i, const snap::BFSResult& r) {
        if (i < 2) {
          log.expect(r.dist == snap::bfs_serial(g_, bfs_sources_[i]).dist,
                     "bfs distances from source " +
                         std::to_string(bfs_sources_[i]) +
                         " differ from bfs_serial");
        }
      },
      [&](const snap::Components& comps, const snap::PageRankResult& pr,
          const snap::LouvainResult& lv) {
        log.expect(comps.count == snap::connected_components_bfs(g_).count,
                   "connected_components and connected_components_bfs "
                   "disagree on the component count");
        std::uint64_t mass = 0;
        for (const std::uint64_t m : pr.mass) mass += m;
        log.expect(mass == snap::kPageRankTotalMass,
                   "pagerank mass does not sum to 2^60");
        const double q =
            snap::modularity(g_, lv.community.clustering.membership);
        log.expect(std::abs(q - lv.community.modularity) <= 1e-9,
                   "louvain Q differs from modularity() of its membership");

        counts_.cc_components = comps.count;
        counts_.pagerank_bytes = pagerank_bytes_per_iter(g_) * pr.iterations;
        counts_.louvain_levels = static_cast<std::int64_t>(lv.levels.size());
        for (const auto& level : lv.levels) {
          counts_.louvain_sweeps += level.sweeps();
          counts_.louvain_moves += level.moves();
        }
        if (!lv.levels.empty()) {
          counts_.louvain_level0_sweeps = lv.levels.front().sweeps();
          counts_.louvain_level0_moves = lv.levels.front().moves();
        }
        counts_.louvain_refine_moves = lv.refine_moves;
        counts_.louvain_communities = lv.community.clustering.num_clusters;
        modularity_ = lv.community.modularity;
        pagerank_mass_ = pr.mass;
      });
  std::copy(std::begin(out.digests), std::end(out.digests), digests_);
  bc_ = out.bc;
  // Shortest-path counts are doubles and overflow on long grid paths
  // (inf / inf) on grid-road graphs from about 600x600 up.
  log.expect(std::all_of(bc_.begin(), bc_.end(),
                         [](double x) { return std::isfinite(x) && x >= 0; }),
             "betweenness is not finite and non-negative everywhere");

  // Level counts come from the same engine with its decision trace on.
  for (const vid_t s : bfs_sources_) {
    std::vector<snap::BfsLevelStats> levels;
    const snap::BFSResult r = snap::bfs_hybrid(g_, s, {}, &levels);
    counts_.bfs_levels += r.num_levels;
    for (const auto& l : levels) counts_.bfs_pull_levels += l.pull ? 1 : 0;
  }
}

PassTimes OfflinePipeline::timed_pass(CheckLog& log) {
  const PassOutputs out = run_pass(
      g_, bfs_sources_, bc_sources_, [](std::size_t, const snap::BFSResult&) {},
      [](const snap::Components&, const snap::PageRankResult&,
         const snap::LouvainResult&) {});
  for (int k = 0; k < kNumKernels; ++k)
    log.expect(out.digests[k] == digests_[k],
               std::string(kKernelNames[k]) +
                   " output differs from the reference pass");
  bool bc_same = out.bc.size() == bc_.size();
  for (std::size_t i = 0; bc_same && i < bc_.size(); ++i)
    bc_same = std::abs(out.bc[i] - bc_[i]) <= 1e-9 * std::abs(bc_[i]) + 1e-12;
  log.expect(bc_same, "betweenness differs from the reference pass");
  return out.times;
}

LayoutMetrics measure_layouts(const CSRGraph& g,
                              const std::vector<vid_t>& sources,
                              double flat_bfs_s) {
  LayoutMetrics m;
  auto timed = [](const char* name, auto&& fn) {
    ScopedSpan s(name, Layer::kGraph);
    const auto t0 = Clock::now();
    fn();
    return since(t0);
  };
  auto bfs_set = [&](const CSRGraph& h, const std::vector<vid_t>& old_to_new) {
    return timed("bfs_set", [&] {
      for (const vid_t s : sources)
        (void)snap::bfs(h, old_to_new[static_cast<std::size_t>(s)]);
    });
  };

  snap::ReorderedGraph deg;
  m.relabel_degree_s =
      timed("relabel_by_degree", [&] { deg = snap::relabel_by_degree(g); });
  m.bfs_degree_s = bfs_set(deg.graph, deg.old_to_new);
  deg = {};

  snap::ReorderedGraph hub;
  m.relabel_hub_s =
      timed("relabel_by_hub_cluster", [&] { hub = snap::relabel_by_hub_cluster(g); });
  m.bfs_hub_s = bfs_set(hub.graph, hub.old_to_new);

  snap::CompressedCSR c;
  m.compress_s = timed("compress",
                       [&] { c = snap::CompressedCSR::from_graph(hub.graph); });
  m.compressed_bytes_per_arc = static_cast<double>(c.byte_size()) /
                               static_cast<double>(std::max<eid_t>(1, c.num_arcs()));
  m.bfs_compressed_s = timed("bfs_compressed_set", [&] {
    for (const vid_t s : sources)
      (void)snap::bfs_compressed(
          c, hub.old_to_new[static_cast<std::size_t>(s)]);
  });
  m.pagerank_compressed_s = timed("pagerank_compressed", [&] {
    (void)snap::pagerank_compressed(c, pagerank_params());
  });

  m.reorder_breakeven_runs = LayoutMetrics::kNeverBreaksEven;
  for (const auto& [cost, bfs] : {std::pair{m.relabel_degree_s, m.bfs_degree_s},
                                 std::pair{m.relabel_hub_s, m.bfs_hub_s}}) {
    const double saving = flat_bfs_s - bfs;
    if (saving > 0)
      m.reorder_breakeven_runs = std::min(m.reorder_breakeven_runs, cost / saving);
  }
  return m;
}

PartitionMetrics measure_partition(const CSRGraph& g,
                                   const OfflinePipeline& flat,
                                   CheckLog& log) {
  PartitionMetrics m;
  snap::PartitionedCSROptions opts;
  opts.num_shards = snap::parallel::num_threads();
  snap::PartitionedCSR p;
  {
    ScopedSpan s("partitioned_build", Layer::kPartition);
    const auto t0 = Clock::now();
    p = snap::PartitionedCSR::build(g, opts);
    m.build_s = since(t0);
  }
  m.boundary_arc_frac = static_cast<double>(p.boundary_arcs()) /
                        static_cast<double>(std::max<eid_t>(1, p.num_arcs()));
  {
    ScopedSpan s("partitioned_bfs_set", Layer::kPartition);
    const auto t0 = Clock::now();
    for (const vid_t src : flat.bfs_sources()) (void)p.bfs_distances(src);
    m.bfs_s = since(t0);
  }
  {
    ScopedSpan s("partitioned_components", Layer::kPartition);
    const auto t0 = Clock::now();
    const snap::Components comps = p.components();
    m.cc_s = since(t0);
    log.expect(comps.count == flat.counts().cc_components,
               "partitioned components disagree with the flat count");
  }
  {
    ScopedSpan s("partitioned_pagerank", Layer::kPartition);
    const auto t0 = Clock::now();
    const snap::PartitionedPageRank pr = p.pagerank(pagerank_params());
    m.pagerank_s = since(t0);
    log.expect(pr.result.mass == flat.pagerank_mass(),
               "partitioned pagerank mass differs from the flat engine's");
    const double iters = std::max(1, pr.result.iterations);
    m.exchange_msgs_per_iter = static_cast<double>(pr.boundary_messages) / iters;
    m.exchange_naive_per_iter =
        static_cast<double>(pr.boundary_messages + pr.combined_messages) /
        iters;
    m.combiner_ratio =
        pr.boundary_messages > 0
            ? m.exchange_naive_per_iter / m.exchange_msgs_per_iter
            : 1.0;
  }
  return m;
}

}  // namespace e2e
