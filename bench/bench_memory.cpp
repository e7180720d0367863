// bench_memory: the memory-system performance bench.
//
// Runs BFS, connected components, sampled betweenness, PageRank (10
// fixed-point iterations), the triangle count behind the clustering
// coefficients, and (in full mode) Louvain over one corpus instance in up
// to five memory layouts:
//
//   baseline     the graph exactly as generated/loaded
//   degree       relabel_by_degree pre-pass (hubs first)
//   hub          relabel_by_hub_cluster pre-pass (hub block + BFS tail)
//   compressed   delta/varint CompressedCSR built over the hub ordering
//                (BFS and PageRank — the bandwidth-bound kernels the
//                encoding targets)
//   partitioned  PartitionedCSR, owner-computes kernels (BFS, CC, degrees,
//                PageRank with sum-combined boundary exchange; the run also
//                emits a pagerank-exchange:partitioned record carrying the
//                per-iteration cross-shard message volume and how much the
//                combiner cut it vs a naive per-cut-edge push)
//
// It also times the SNAPB2 load of the instance (`load:snapb2`, median of
// 5 read_binary calls; the file's size is the exact count `bytes:snapb2`).
// The triangle total is the exact count `count:triangles`: relabelling
// keeps the edge set, so it is the same in every layout.
//
// Every kernel uses the same logical source vertices in every layout (ids
// mapped through the relabeling permutation), so the numbers isolate the
// memory layout.  Pre-pass and build costs are recorded as their own
// phases — a locality ordering only pays off if its one-time cost is
// amortized by the traversals that follow, and the report shows both sides.
//
// Flags:
//   --corpus NAME   corpus instance (default rmat22; `--corpus list` to list)
//   --smoke         small built-in instance, 1 rep, no Louvain (CI mode)
//   --json PATH     write JSON records (phase names "<kernel>:<layout>")
//   --reps N        timing repetitions, min taken (default 3; smoke: 1)
//   --partitioner   cut PartitionedCSR with multilevel k-way instead of
//                   contiguous chunks (slower build, smaller boundary)
//   --shards K      PartitionedCSR shard count (default max(4, threads))

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/centrality/betweenness.hpp"
#include "snap/community/louvain.hpp"
#include "snap/graph/compressed_csr.hpp"
#include "snap/graph/reorder.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/partition/partitioned_csr.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace {

using snap::CSRGraph;
using snap::vid_t;

constexpr int kBCSources = 8;
constexpr int kLoadReps = 5;

/// Best-of-reps wall time of `fn` (which must not be optimized away:
/// every kernel returns a result we fold into `sink`).
template <typename F>
double time_best(int reps, double& sink, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    snap::WallTimer t;
    sink += fn();
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

/// Deterministic sample sources: the top-degree vertex plus evenly spaced
/// ids (original-id space; callers map through the layout's permutation).
std::vector<vid_t> pick_sources(const CSRGraph& g, int count) {
  const vid_t n = g.num_vertices();
  vid_t hub = 0;
  for (vid_t v = 1; v < n; ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  std::vector<vid_t> s{hub};
  for (int i = 1; i < count && i < n; ++i)
    s.push_back((n / count) * i % n);
  return s;
}

struct Layout {
  std::string name;
  const CSRGraph* graph;
  const std::vector<vid_t>* old_to_new;  ///< nullptr = identity
};

vid_t mapped(const Layout& l, vid_t old_id) {
  return l.old_to_new ? (*l.old_to_new)[static_cast<std::size_t>(old_id)]
                      : old_id;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snapbench;
  const bool smoke = has_flag(argc, argv, "--smoke");
  const int reps = std::atoi(
      flag_value(argc, argv, "--reps", smoke ? "1" : "3").c_str());
  const std::string json = flag_value(argc, argv, "--json");
  const int threads = snap::parallel::num_threads();

  print_header("bench_memory: locality-aware CSR layouts");

  std::string dataset;
  CSRGraph g;
  if (smoke) {
    dataset = "smoke";
    g = make_rmat(14);
    std::printf("[smoke] R-MAT scale 14: n=%lld m=%lld\n",
                static_cast<long long>(g.num_vertices()),
                static_cast<long long>(g.num_edges()));
  } else if (!corpus_from_flags(argc, argv, &dataset, &g)) {
    dataset = "rmat22";
    g = load_corpus(dataset);
  }

  JsonReport report("memory", json);
  const JsonReport::Params params = {
      {"n", std::to_string(g.num_vertices())},
      {"m", std::to_string(g.num_edges())}};
  auto rec = [&](const std::string& phase, double seconds) {
    report.record(dataset, params, threads, phase, seconds);
  };

  const std::vector<vid_t> sources = pick_sources(g, kBCSources);
  const vid_t bfs_src = sources[0];
  double sink = 0;

  // --- Pre-passes -------------------------------------------------------
  snap::WallTimer t_deg;
  snap::ReorderedGraph by_degree = snap::relabel_by_degree(g);
  const double s_deg = t_deg.elapsed_s();
  rec("prepass:degree", s_deg);

  snap::WallTimer t_hub;
  snap::ReorderedGraph by_hub = snap::relabel_by_hub_cluster(g);
  const double s_hub = t_hub.elapsed_s();
  rec("prepass:hub", s_hub);

  snap::WallTimer t_comp;
  const snap::CompressedCSR compressed =
      snap::CompressedCSR::from_graph(by_hub.graph);
  const double s_comp = t_comp.elapsed_s();
  rec("prepass:compressed", s_comp);
  const double plain_bytes =
      static_cast<double>(g.num_arcs()) * sizeof(vid_t);
  const double arcs =
      static_cast<double>(std::max<snap::eid_t>(1, g.num_arcs()));
  std::printf("pre-pass: degree %.2fs, hub %.2fs, compress %.2fs "
              "(%.2f bytes/arc, %.1fx smaller)\n",
              s_deg, s_hub, s_comp,
              static_cast<double>(compressed.byte_size()) / arcs,
              plain_bytes / static_cast<double>(std::max<std::size_t>(
                                1, compressed.byte_size())));

  // Image sizes are exact counts, not timings: the CSR image (all of it)
  // and the compressed adjacency, both deterministic for a given graph.
  // bench_compare fails on any change; bytes per arc is count / arcs.
  JsonReport::Params size_params = params;
  size_params.emplace_back("arcs", std::to_string(g.num_arcs()));
  report.record_count(dataset, size_params, threads, "bytes:csr",
                      static_cast<std::int64_t>(g.byte_size()));
  report.record_count(dataset, size_params, threads, "bytes:compressed",
                      static_cast<std::int64_t>(compressed.byte_size()));
  std::printf("image: CSR %zu B (%.2f B/arc), compressed %zu B\n",
              g.byte_size(), static_cast<double>(g.byte_size()) / arcs,
              compressed.byte_size());

  // SNAPB2 load: read_binary of the instance's file, median of 5, plus the
  // file's exact size.  A smoke run (or an instance whose cache is missing)
  // writes a temporary file first, untimed.
  {
    std::string file = corpus_dir() + "/" + dataset + ".snapb";
    const bool temporary = smoke || !std::filesystem::exists(file);
    if (temporary) {
      file = (std::filesystem::temp_directory_path() /
              ("snap_bench_memory_" + dataset + ".snapb"))
                 .string();
      snap::io::write_binary(g, file);
    }
    const auto file_bytes =
        static_cast<std::int64_t>(std::filesystem::file_size(file));
    std::vector<double> load_s;
    for (int r = 0; r < kLoadReps; ++r) {
      snap::WallTimer t;
      const CSRGraph back = snap::io::read_binary(file);
      load_s.push_back(t.elapsed_s());
      sink += static_cast<double>(back.num_arcs());
    }
    if (temporary) std::filesystem::remove(file);
    report.record_reps(dataset, size_params, threads, "load:snapb2", load_s,
                       static_cast<double>(file_bytes));
    report.record_count(dataset, size_params, threads, "bytes:snapb2",
                        file_bytes);
    std::sort(load_s.begin(), load_s.end());
    std::printf("SNAPB2 load: %lld B in %.4fs (median of %d, %.4f-%.4fs)\n",
                static_cast<long long>(file_bytes), load_s[load_s.size() / 2],
                kLoadReps, load_s.front(), load_s.back());
  }

  snap::PartitionedCSROptions popts;
  popts.num_shards = std::max(4, threads);
  if (const std::string s = flag_value(argc, argv, "--shards"); !s.empty())
    popts.num_shards = std::atoi(s.c_str());
  popts.use_partitioner = has_flag(argc, argv, "--partitioner");
  snap::WallTimer t_part;
  const snap::PartitionedCSR part = snap::PartitionedCSR::build(g, popts);
  const double s_part = t_part.elapsed_s();
  rec("prepass:partitioned", s_part);
  std::printf("partitioned: %d shards, boundary arcs %lld / %lld (%.1f%%), "
              "build %.2fs\n",
              part.num_shards(),
              static_cast<long long>(part.boundary_arcs()),
              static_cast<long long>(part.num_arcs()),
              100.0 * static_cast<double>(part.boundary_arcs()) /
                  static_cast<double>(std::max<snap::eid_t>(1, part.num_arcs())),
              s_part);

  const std::vector<Layout> layouts = {
      {"baseline", &g, nullptr},
      {"degree", &by_degree.graph, &by_degree.old_to_new},
      {"hub", &by_hub.graph, &by_hub.old_to_new},
  };

  // Fixed work for cross-layout comparability: exactly 10 iterations,
  // no early exit (tol = 0).
  snap::PageRankParams prp;
  prp.max_iters = 10;
  prp.tol = 0.0;

  // --- Kernels over the flat layouts ------------------------------------
  std::map<std::string, double> times;  // "<kernel>:<layout>" -> seconds
  std::int64_t triangles = 0;
  for (const Layout& l : layouts) {
    const CSRGraph& lg = *l.graph;
    const vid_t src = mapped(l, bfs_src);

    times["bfs:" + l.name] = time_best(reps, sink, [&] {
      return static_cast<double>(snap::bfs(lg, src).num_visited);
    });
    rec("bfs:" + l.name, times["bfs:" + l.name]);

    // The adjacency-driven CC engine: the edge-list SV engine streams
    // g.edges() sequentially and is insensitive to vertex order, so it
    // would measure nothing about the layout (see docs/PERFORMANCE.md).
    times["cc:" + l.name] = time_best(reps, sink, [&] {
      return static_cast<double>(snap::connected_components_bfs(lg).count);
    });
    rec("cc:" + l.name, times["cc:" + l.name]);

    std::vector<vid_t> lsrc;
    for (const vid_t s : sources) lsrc.push_back(mapped(l, s));
    times["bc:" + l.name] = time_best(reps, sink, [&] {
      return snap::approx_vertex_betweenness(lg, lsrc)[0];
    });
    rec("bc:" + l.name, times["bc:" + l.name]);

    times["pagerank:" + l.name] = time_best(reps, sink, [&] {
      return snap::pagerank(lg, prp).rank[0];
    });
    rec("pagerank:" + l.name, times["pagerank:" + l.name]);

    times["triangles:" + l.name] = time_best(reps, sink, [&] {
      triangles = snap::count_triangles(lg).num_triangles;
      return static_cast<double>(triangles);
    });
    rec("triangles:" + l.name, times["triangles:" + l.name]);

    if (!smoke) {
      times["louvain:" + l.name] = time_best(1, sink, [&] {
        return snap::louvain(lg).community.modularity;
      });
      rec("louvain:" + l.name, times["louvain:" + l.name]);
    }
  }
  report.record_count(dataset, params, threads, "count:triangles", triangles);
  std::printf("triangles: %lld\n", static_cast<long long>(triangles));

  // --- Compressed (BFS: the bandwidth-bound kernel) ----------------------
  {
    const vid_t src = mapped(layouts[2], bfs_src);
    times["bfs:compressed"] = time_best(reps, sink, [&] {
      return static_cast<double>(
          snap::bfs_compressed(compressed, src).num_visited);
    });
    rec("bfs:compressed", times["bfs:compressed"]);

    times["pagerank:compressed"] = time_best(reps, sink, [&] {
      return snap::pagerank_compressed(compressed, prp).rank[0];
    });
    rec("pagerank:compressed", times["pagerank:compressed"]);
  }

  // --- Partitioned (owner-computes BFS / CC / degrees) -------------------
  times["bfs:partitioned"] = time_best(reps, sink, [&] {
    return static_cast<double>(part.bfs_distances(bfs_src)[0]);
  });
  rec("bfs:partitioned", times["bfs:partitioned"]);
  times["cc:partitioned"] = time_best(reps, sink, [&] {
    return static_cast<double>(part.components().count);
  });
  rec("cc:partitioned", times["cc:partitioned"]);
  times["degree:partitioned"] = time_best(reps, sink, [&] {
    return static_cast<double>(part.degrees()[0]);
  });
  rec("degree:partitioned", times["degree:partitioned"]);

  snap::PartitionedPageRank ppr;
  times["pagerank:partitioned"] = time_best(reps, sink, [&] {
    ppr = part.pagerank(prp);
    return ppr.result.rank[0];
  });
  rec("pagerank:partitioned", times["pagerank:partitioned"]);

  // Cross-shard traffic of the owner-computes PageRank.  The counters are
  // deterministic (a pure function of graph and cut), recorded with
  // seconds = 0 so bench_compare archives them without time-gating:
  // messages_per_iter is what actually crossed shard boundaries,
  // naive_per_iter is what a per-cut-edge push would have sent.
  {
    const auto iters = static_cast<std::uint64_t>(
        std::max(1, ppr.result.iterations));
    const std::uint64_t per_iter = ppr.boundary_messages / iters;
    const std::uint64_t naive_per_iter =
        (ppr.boundary_messages + ppr.combined_messages) / iters;
    JsonReport::Params msg_params = params;
    msg_params.emplace_back("shards", std::to_string(part.num_shards()));
    msg_params.emplace_back("messages_per_iter", std::to_string(per_iter));
    msg_params.emplace_back("naive_per_iter", std::to_string(naive_per_iter));
    msg_params.emplace_back("combined_total",
                            std::to_string(ppr.combined_messages));
    report.record(dataset, msg_params, threads,
                  "pagerank-exchange:partitioned", 0.0);
    std::printf("pagerank exchange: %llu msgs/iter combined vs %llu naive "
                "(%.2fx reduction, boundary arcs %lld)\n",
                static_cast<unsigned long long>(per_iter),
                static_cast<unsigned long long>(naive_per_iter),
                per_iter > 0 ? static_cast<double>(naive_per_iter) /
                                   static_cast<double>(per_iter)
                             : 1.0,
                static_cast<long long>(part.boundary_arcs()));
  }

  // --- Speedup table vs baseline ----------------------------------------
  std::printf("\n%-10s %-12s %10s %10s\n", "kernel", "layout", "seconds",
              "speedup");
  const std::vector<std::string> kernels = {
      "bfs", "cc", "bc", "pagerank", "triangles", "louvain", "degree"};
  for (const std::string& k : kernels) {
    const auto base = times.find(k + ":baseline");
    for (const auto& [key, sec] : times) {
      if (key.rfind(k + ":", 0) != 0) continue;
      const std::string layout = key.substr(k.size() + 1);
      if (base != times.end() && base->second > 0)
        std::printf("%-10s %-12s %10.4f %9.2fx\n", k.c_str(), layout.c_str(),
                    sec, base->second / sec);
      else
        std::printf("%-10s %-12s %10.4f %10s\n", k.c_str(), layout.c_str(),
                    sec, "-");
    }
  }
  std::printf("(sink %.3g)\n", sink);

  report.write();
  return 0;
}
