// Google-benchmark micro suite for the SNAP kernels (§3): each kernel is
// timed on an R-MAT instance (skewed degrees) and an Erdős–Rényi instance
// of the same size (uniform degrees).  The paper's claim is that the
// degree-aware kernels perform "mostly independent of the graph degree
// distribution" — compare the paired timings.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"
#include "snap/centrality/betweenness.hpp"
#include "snap/community/modularity.hpp"
#include "snap/community/pma.hpp"
#include "snap/gen/generators.hpp"
#include "snap/kernels/bfs.hpp"
#include "snap/kernels/biconnected.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/mst.hpp"
#include "snap/kernels/sssp.hpp"

namespace {

using namespace snap;

constexpr int kScale = 15;  // 32k vertices, 256k edges: fast but nontrivial

const CSRGraph& rmat_instance() {
  static const CSRGraph g = [] {
    gen::RmatParams p;
    p.scale = kScale;
    p.edge_factor = 8;
    return gen::rmat(p);
  }();
  return g;
}

const CSRGraph& er_instance() {
  static const CSRGraph g =
      gen::erdos_renyi(vid_t{1} << kScale, eid_t{8} << kScale, false, 7);
  return g;
}

const CSRGraph& ws_instance() {
  static const CSRGraph g =
      gen::watts_strogatz(vid_t{1} << kScale, 8, 0.05, 7);
  return g;
}

// 0 = Erdős–Rényi, 1 = R-MAT (skewed), 2 = Watts–Strogatz.
const CSRGraph& pick(int which) {
  switch (which) {
    case 1:
      return rmat_instance();
    case 2:
      return ws_instance();
    default:
      return er_instance();
  }
}

const char* graph_name(int which) {
  switch (which) {
    case 1:
      return "rmat";
    case 2:
      return "ws";
    default:
      return "er";
  }
}

/// One-time per-level audit of the hybrid engine's push/pull decisions on
/// each bench instance — the direction-optimizing analogue of Fig. 2's
/// per-kernel breakdown.
void report_hybrid_trace(int which) {
  static bool done[3] = {false, false, false};
  if (done[which]) return;
  done[which] = true;
  const CSRGraph& g = pick(which);
  std::vector<BfsLevelStats> trace;
  bfs_hybrid(g, 0, {}, &trace);
  std::fprintf(stderr,
               "# hybrid BFS levels on %s (n=%lld, arcs=%lld):\n"
               "#   level  mode  frontier_verts  frontier_arcs  discovered\n",
               graph_name(which), static_cast<long long>(g.num_vertices()),
               static_cast<long long>(g.num_arcs()));
  for (const auto& lv : trace) {
    std::fprintf(stderr, "#   %5lld  %s  %14lld  %13lld  %10lld\n",
                 static_cast<long long>(lv.level), lv.pull ? "pull" : "push",
                 static_cast<long long>(lv.frontier_vertices),
                 static_cast<long long>(lv.frontier_arcs),
                 static_cast<long long>(lv.discovered));
  }
}

void BM_BFS(benchmark::State& state) {
  const CSRGraph& g = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs(g, 0));
  }
  state.counters["MTEPS"] = benchmark::Counter(
      static_cast<double>(g.num_arcs()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BFS)->Arg(0)->Arg(1)->Arg(2)->ArgName("graph");

void BM_BFSPush(benchmark::State& state) {
  // The paper's original arc-balanced push-only BFS: the baseline the
  // direction-optimizing engine is measured against.
  const CSRGraph& g = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_push(g, 0));
  }
  state.counters["MTEPS"] = benchmark::Counter(
      static_cast<double>(g.num_arcs()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BFSPush)->Arg(0)->Arg(1)->Arg(2)->ArgName("graph");

void BM_BFSHybrid(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const CSRGraph& g = pick(which);
  report_hybrid_trace(which);
  std::vector<BfsLevelStats> trace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_hybrid(g, 0, {}, &trace));
  }
  double pull_levels = 0;
  for (const auto& lv : trace)
    if (lv.pull) pull_levels += 1;
  state.counters["levels"] = static_cast<double>(trace.size());
  state.counters["pull_levels"] = pull_levels;
  state.counters["MTEPS"] = benchmark::Counter(
      static_cast<double>(g.num_arcs()) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BFSHybrid)->Arg(0)->Arg(1)->Arg(2)->ArgName("graph");

void BM_BFSSerial(benchmark::State& state) {
  const CSRGraph& g = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_serial(g, 0));
  }
}
BENCHMARK(BM_BFSSerial)->Arg(0)->Arg(1)->ArgName("graph");

void BM_ConnectedComponents(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(connected_components(g));
  }
}
BENCHMARK(BM_ConnectedComponents)->Arg(0)->Arg(1)->ArgName("rmat");

void BM_Biconnected(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(biconnected_components(g));
  }
}
BENCHMARK(BM_Biconnected)->Arg(0)->Arg(1)->ArgName("rmat");

void BM_BoruvkaMST(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(boruvka_mst(g));
  }
}
BENCHMARK(BM_BoruvkaMST)->Arg(0)->Arg(1)->ArgName("rmat");

void BM_DeltaStepping(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_stepping(g, 0));
  }
}
BENCHMARK(BM_DeltaStepping)->Arg(0)->Arg(1)->ArgName("rmat");

// Exact Brandes runs all n sources — use a dedicated smaller instance so the
// benchmark stays in micro territory.
const CSRGraph& bc_instance() {
  static const CSRGraph g = [] {
    gen::RmatParams p;
    p.scale = 11;  // 2k vertices
    p.edge_factor = 8;
    p.seed = 9;
    return gen::rmat(p);
  }();
  return g;
}

void BM_BetweennessCoarse(benchmark::State& state) {
  const CSRGraph& g = bc_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        betweenness_centrality(g, BCGranularity::kCoarse));
  }
}
BENCHMARK(BM_BetweennessCoarse);

void BM_BetweennessFine(benchmark::State& state) {
  const CSRGraph& g = bc_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(betweenness_centrality(g, BCGranularity::kFine));
  }
}
BENCHMARK(BM_BetweennessFine);

void BM_EdgeBetweennessMasked(benchmark::State& state) {
  const CSRGraph& g = bc_instance();
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(g.num_edges()), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edge_betweenness_masked(g, alive));
  }
}
BENCHMARK(BM_EdgeBetweennessMasked);

void BM_ApproxEdgeBetweenness(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(g.num_edges()), 1);
  // 0.5% of vertices as sources — the pBD inner kernel at sampling rate.
  std::vector<vid_t> sources;
  for (vid_t v = 0; v < g.num_vertices(); v += 200) sources.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx_edge_betweenness(g, alive, sources));
  }
}
BENCHMARK(BM_ApproxEdgeBetweenness)->Arg(0)->Arg(1)->ArgName("rmat");

void BM_Modularity(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  std::vector<vid_t> mem(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t v = 0; v < mem.size(); ++v)
    mem[v] = static_cast<vid_t>(v % 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(modularity(g, mem));
  }
}
BENCHMARK(BM_Modularity)->Arg(0)->Arg(1)->ArgName("rmat");

void BM_PmaAgglomeration(benchmark::State& state) {
  // Smaller instance: pMA runs a full dendrogram per iteration.
  static const CSRGraph g = gen::planted_partition(8192, 64, 7.0, 1.0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pma(g));
  }
}
BENCHMARK(BM_PmaAgglomeration);

void BM_GraphBuild(benchmark::State& state) {
  const CSRGraph& g = pick(state.range(0) != 0);
  const EdgeList edges = g.edges().to_list();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CSRGraph::from_edges(g.num_vertices(), edges, false));
  }
}
BENCHMARK(BM_GraphBuild)->Arg(0)->Arg(1)->ArgName("rmat");

/// Smoke/JSON mode (CI perf trajectory): time each Brandes engine entry
/// point once on a small instance and emit sources-per-second records.
/// Invoked with `--smoke` and/or `--json out.json`; without either flag the
/// binary is the ordinary google-benchmark suite.
int run_centrality_smoke(int argc, char** argv) {
  using namespace snapbench;
  print_header("bench_kernels centrality smoke: Brandes engine sources/s");
  JsonReport report("bench_kernels", flag_value(argc, argv, "--json"));

  gen::RmatParams rp;
  rp.scale = has_flag(argc, argv, "--smoke") ? 9 : 11;
  rp.edge_factor = 8;
  rp.seed = 9;
  const CSRGraph g = gen::rmat(rp);
  // Weighted twin of the same topology (distinct weights, Dijkstra phase).
  EdgeList wedges = g.edges().to_list();
  for (std::size_t i = 0; i < wedges.size(); ++i)
    wedges[i].w = static_cast<weight_t>(1 + (i % 7));
  const CSRGraph wg = CSRGraph::from_edges(g.num_vertices(), wedges, false);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(g.num_edges()), 1);

  const int nt = max_threads();
  const auto n = static_cast<double>(g.num_vertices());
  const JsonReport::Params params{{"n", std::to_string(g.num_vertices())},
                                  {"m", std::to_string(g.num_edges())}};
  parallel::ThreadScope scope(nt);
  struct Entry {
    const char* phase;
    std::function<void()> run;
  };
  // lint:allow(std-function) bench driver table, not library code
  const std::vector<Entry> entries{
      {"brandes_coarse",
       [&] { betweenness_centrality(g, BCGranularity::kCoarse); }},
      {"brandes_fine",
       [&] { betweenness_centrality(g, BCGranularity::kFine); }},
      {"brandes_masked", [&] { edge_betweenness_masked(g, alive); }},
      {"brandes_weighted", [&] { weighted_betweenness_centrality(wg); }},
  };
  std::printf("%-18s %10s %12s\n", "phase", "seconds", "sources/s");
  for (const auto& e : entries) {
    WallTimer w;
    e.run();
    const double sec = w.elapsed_s();
    report.record("rmat", params, nt, e.phase, sec, n / sec);
    std::printf("%-18s %10.3f %12.0f\n", e.phase, sec, n / sec);
  }
  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (snapbench::has_flag(argc, argv, "--smoke") ||
      !snapbench::flag_value(argc, argv, "--json").empty())
    return run_centrality_smoke(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
