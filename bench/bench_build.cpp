// Graph-ingest throughput bench: edges/second for raw edge generation, CSR
// construction (the PR-2 parallel pipeline, with and without dedupe, plus
// the retained serial reference), and edge-list text I/O, across R-MAT /
// Erdős–Rényi / Watts–Strogatz instances and a thread sweep.
//
//   bench_build [--smoke] [--json out.json]
//
// --smoke shrinks the instances so CI can run this as a smoke step and
// archive the JSON perf trajectory; SNAP_MAX_THREADS caps the sweep.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/io/edge_list_io.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace {

using snapbench::JsonReport;

struct Instance {
  std::string label;
  snap::vid_t n = 0;
  bool directed = false;
  JsonReport::Params params;
  std::function<snap::EdgeList()> make_edges;
};

std::vector<Instance> instances(bool smoke) {
  auto rmat_inst = [](int scale, snap::eid_t ef) {
    snap::gen::RmatParams p;
    p.scale = scale;
    p.edge_factor = ef;
    p.seed = 7;
    Instance inst;
    inst.label = "rmat" + std::to_string(scale);
    inst.n = snap::vid_t{1} << scale;
    inst.params = {{"family", "rmat"},
                   {"scale", std::to_string(scale)},
                   {"edge_factor", std::to_string(ef)}};
    inst.make_edges = [p] { return snap::gen::rmat_edges(p); };
    return inst;
  };
  auto er_inst = [](int scale, snap::eid_t ef) {
    const snap::vid_t n = snap::vid_t{1} << scale;
    const snap::eid_t m = ef * n;
    Instance inst;
    inst.label = "er" + std::to_string(scale);
    inst.n = n;
    inst.params = {{"family", "er"},
                   {"n", std::to_string(n)},
                   {"m", std::to_string(m)}};
    inst.make_edges = [n, m] { return snap::gen::erdos_renyi_edges(n, m, 9); };
    return inst;
  };
  auto ws_inst = [](int scale, snap::vid_t k) {
    const snap::vid_t n = snap::vid_t{1} << scale;
    Instance inst;
    inst.label = "ws" + std::to_string(scale);
    inst.n = n;
    inst.params = {{"family", "ws"},
                   {"n", std::to_string(n)},
                   {"k", std::to_string(k)}};
    inst.make_edges = [n, k] {
      return snap::gen::watts_strogatz_edges(n, k, 0.1, 11);
    };
    return inst;
  };
  if (smoke) return {rmat_inst(14, 8), er_inst(14, 8), ws_inst(14, 4)};
  return {rmat_inst(18, 8), rmat_inst(20, 8), er_inst(18, 8), ws_inst(18, 8)};
}

std::vector<int> build_thread_sweep(bool smoke) {
  std::vector<int> ts;
  const int cap = smoke ? 2 : std::min(8, snapbench::max_threads());
  for (int t = 1; t <= cap; t *= 2) ts.push_back(t);
  return ts;
}

double mps(std::size_t edges, double seconds) {
  return seconds > 0 ? static_cast<double>(edges) / seconds / 1e6 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = snapbench::has_flag(argc, argv, "--smoke");
  JsonReport report("bench_build",
                    snapbench::flag_value(argc, argv, "--json"));
  snapbench::print_header(
      "Graph ingest: edge generation, CSR build, edge-list I/O (Medges/s)");

  const auto threads = build_thread_sweep(smoke);
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "snap_bench_build_edges.txt")
          .string();

  std::vector<Instance> insts;
  {
    std::string cname;
    snap::CSRGraph cg;
    if (snapbench::corpus_from_flags(argc, argv, &cname, &cg)) {
      // Rebuild-from-edges throughput on the corpus instance's edge list.
      Instance inst;
      inst.label = cname;
      inst.n = cg.num_vertices();
      inst.directed = cg.directed();
      inst.params = {{"family", "corpus"}};
      const snap::EdgeList edges = cg.edges().to_list();
      inst.make_edges = [edges] { return edges; };
      insts.push_back(std::move(inst));
    } else {
      insts = instances(smoke);
    }
  }

  for (const Instance& inst : insts) {
    std::printf("\n-- %s (n=%lld) --\n", inst.label.c_str(),
                static_cast<long long>(inst.n));
    std::printf("%8s %12s %14s %14s %12s %12s\n", "threads", "gen",
                "build+dedupe", "build-nodedupe", "write", "read");
    double t1_build = 0, tmax_build = 0;
    for (int t : threads) {
      snap::parallel::ThreadScope scope(t);
      snap::WallTimer timer;
      const snap::EdgeList edges = inst.make_edges();
      const double gen_s = timer.elapsed_s();
      const std::size_t m = edges.size();

      snap::BuildOptions dedupe_opts;  // dedupe + sort_adjacency on
      timer.reset();
      const snap::CSRGraph g =
          snap::CSRGraph::from_edges(inst.n, edges, inst.directed, dedupe_opts);
      const double build_s = timer.elapsed_s();
      if (t == 1) t1_build = build_s;
      tmax_build = build_s;

      snap::BuildOptions raw_opts;
      raw_opts.dedupe = false;
      timer.reset();
      const snap::CSRGraph graw =
          snap::CSRGraph::from_edges(inst.n, edges, inst.directed, raw_opts);
      const double build_raw_s = timer.elapsed_s();

      timer.reset();
      snap::io::write_edge_list(g, tmp);
      const double write_s = timer.elapsed_s();
      timer.reset();
      const snap::io::ParsedEdges parsed = snap::io::read_edge_list(tmp);
      const double read_s = timer.elapsed_s();

      std::printf("%8d %9.1f M/s %11.1f M/s %11.1f M/s %9.1f M/s %9.1f M/s\n",
                  t, mps(m, gen_s), mps(m, build_s), mps(m, build_raw_s),
                  mps(g.edges().size(), write_s),
                  mps(parsed.edges.size(), read_s));

      report.record(inst.label, inst.params, t, "gen", gen_s, mps(m, gen_s));
      report.record(inst.label, inst.params, t, "build_dedupe", build_s,
                    mps(m, build_s));
      report.record(inst.label, inst.params, t, "build_nodedupe", build_raw_s,
                    mps(m, build_raw_s));
      report.record(inst.label, inst.params, t, "io_write", write_s,
                    mps(g.edges().size(), write_s));
      report.record(inst.label, inst.params, t, "io_read", read_s,
                    mps(parsed.edges.size(), read_s));

      if (t == 1) {
        // Serial reference builder, for the parallel-pipeline-vs-reference
        // overhead (and the differential tests' oracle cost).
        snap::BuildOptions serial_opts;
        serial_opts.path = snap::ExecPath::kSerial;
        timer.reset();
        const snap::CSRGraph gs = snap::CSRGraph::from_edges(
            inst.n, edges, inst.directed, serial_opts);
        const double serial_s = timer.elapsed_s();
        std::printf("%8s %9s     %11.1f M/s   (serial reference, %lld edges kept)\n",
                    "ref", "", mps(m, serial_s),
                    static_cast<long long>(gs.num_edges()));
        report.record(inst.label, inst.params, 1, "build_serial_ref", serial_s,
                      mps(m, serial_s));
      }
    }
    if (t1_build > 0 && tmax_build > 0)
      std::printf("build+dedupe speedup at %d threads: %.2fx\n",
                  threads.back(), t1_build / tmax_build);
  }
  std::filesystem::remove(tmp);
  report.write();
  return 0;
}
