// snap-cli — command-line front end for the SNAP library: format
// conversion, structural summaries, community detection, partitioning,
// centrality ranking and synthetic-graph generation, so the framework is
// usable without writing C++.
//
//   snap-cli generate  --type rmat --scale 16 --edge-factor 8 --out g.txt
//   snap-cli summary   --in g.txt
//   snap-cli community --in g.txt --algo pma --out membership.txt
//   snap-cli partition --in g.txt --k 32 --method kway --out parts.txt
//   snap-cli centrality --in g.txt --metric betweenness --top 10
//   snap-cli pagerank  --in g.txt --top 10 --iters 50
//   snap-cli convert   --in g.txt --out g.net
//
// Formats are inferred from extensions (.txt/.el edge list, .gr/.dimacs
// DIMACS, .graph/.metis METIS, .net/.pajek Pajek, .bin binary) or forced
// with --in-format/--out-format.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "snap/centrality/betweenness.hpp"
#include "snap/centrality/closeness.hpp"
#include "snap/centrality/degree.hpp"
#include "snap/centrality/stress.hpp"
#include "snap/community/anneal.hpp"
#include "snap/community/gn.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/community/pbd.hpp"
#include "snap/community/pla.hpp"
#include "snap/community/pma.hpp"
#include "snap/community/spectral_modularity.hpp"
#include "snap/gen/generators.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/io/dimacs_io.hpp"
#include "snap/io/edge_list_io.hpp"
#include "snap/io/metis_io.hpp"
#include "snap/io/pajek_io.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/metrics/robustness.hpp"
#include "snap/partition/multilevel.hpp"
#include "snap/partition/spectral.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/timer.hpp"

namespace {

using namespace snap;

/// Minimal --key value / --flag argument map.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& k) const { return kv_.count(k); }
  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& dflt = "") const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : it->second;
  }
  [[nodiscard]] std::int64_t geti(const std::string& k,
                                  std::int64_t dflt) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : std::atoll(it->second.c_str());
  }
  [[nodiscard]] double getf(const std::string& k, double dflt) const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : std::atof(it->second.c_str());
  }
  [[nodiscard]] std::string require(const std::string& k) const {
    if (!has(k)) {
      std::fprintf(stderr, "missing required option --%s\n", k.c_str());
      std::exit(2);
    }
    return get(k);
  }

 private:
  std::map<std::string, std::string> kv_;
};

std::string ext_of(const std::string& path) {
  const auto dot = path.rfind('.');
  return dot == std::string::npos ? "" : path.substr(dot + 1);
}

std::string detect_format(const std::string& path, const std::string& forced) {
  if (!forced.empty()) return forced;
  const std::string e = ext_of(path);
  if (e == "gr" || e == "dimacs") return "dimacs";
  if (e == "graph" || e == "metis") return "metis";
  if (e == "net" || e == "pajek") return "pajek";
  if (e == "bin") return "binary";
  return "edgelist";
}

CSRGraph load(const Args& a) {
  const std::string path = a.require("in");
  const std::string fmt = detect_format(path, a.get("in-format"));
  const bool directed = a.has("directed");
  if (fmt == "dimacs") return io::read_dimacs(path, directed);
  if (fmt == "metis") return io::read_metis(path);
  if (fmt == "pajek") return io::read_pajek(path);
  if (fmt == "binary") return io::read_binary(path);
  if (fmt == "edgelist") return io::read_edge_list_graph(path, directed);
  std::fprintf(stderr, "unknown input format: %s\n", fmt.c_str());
  std::exit(2);
}

void save(const CSRGraph& g, const std::string& path,
          const std::string& forced) {
  const std::string fmt = detect_format(path, forced);
  if (fmt == "dimacs") {
    io::write_dimacs(g, path);
  } else if (fmt == "metis") {
    io::write_metis(g.directed() ? g.as_undirected() : g, path);
  } else if (fmt == "pajek") {
    io::write_pajek(g, path);
  } else if (fmt == "binary") {
    io::write_binary(g, path);
  } else if (fmt == "edgelist") {
    io::write_edge_list(g, path);
  } else {
    std::fprintf(stderr, "unknown output format: %s\n", fmt.c_str());
    std::exit(2);
  }
}

void write_labels(const std::vector<vid_t>& labels, const std::string& path) {
  std::ofstream out(path);
  for (std::size_t v = 0; v < labels.size(); ++v)
    out << v << ' ' << labels[v] << "\n";
  std::printf("wrote %zu labels to %s\n", labels.size(), path.c_str());
}

int cmd_generate(const Args& a) {
  const std::string type = a.require("type");
  const auto seed = static_cast<std::uint64_t>(a.geti("seed", 1));
  CSRGraph g;
  if (type == "rmat") {
    gen::RmatParams p;
    p.scale = static_cast<int>(a.geti("scale", 16));
    p.edge_factor = a.geti("edge-factor", 8);
    p.m = a.geti("m", 0);
    p.directed = a.has("directed");
    p.seed = seed;
    g = gen::rmat(p);
  } else if (type == "er") {
    g = gen::erdos_renyi(a.geti("n", 1 << 16), a.geti("m", 1 << 19),
                         a.has("directed"), seed);
  } else if (type == "ws") {
    g = gen::watts_strogatz(a.geti("n", 1 << 16), a.geti("k", 4),
                            a.getf("beta", 0.1), seed);
  } else if (type == "grid") {
    g = gen::grid_road(a.geti("rows", 256), a.geti("cols", 256),
                       a.getf("extra", 0.05), a.getf("drop", 0.05), seed);
  } else if (type == "planted") {
    g = gen::planted_partition(a.geti("n", 1 << 16), a.geti("k", 32),
                               a.getf("deg-in", 10.0), a.getf("deg-out", 1.0),
                               seed);
  } else {
    std::fprintf(stderr, "unknown generator: %s\n", type.c_str());
    return 2;
  }
  std::printf("generated %s: n=%lld m=%lld\n", type.c_str(),
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()));
  save(g, a.require("out"), a.get("out-format"));
  return 0;
}

int cmd_convert(const Args& a) {
  const CSRGraph g = load(a);
  save(g, a.require("out"), a.get("out-format"));
  std::printf("converted: n=%lld m=%lld %s\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()),
              g.directed() ? "directed" : "undirected");
  return 0;
}

int cmd_summary(const Args& a) {
  const CSRGraph g = load(a);
  const GraphSummary s =
      summarize(g, static_cast<vid_t>(a.geti("path-samples", 16)));
  std::printf("vertices              %lld\n", static_cast<long long>(s.n));
  std::printf("edges                 %lld\n", static_cast<long long>(s.m));
  std::printf("directed              %s\n", s.directed ? "yes" : "no");
  std::printf("average degree        %.3f\n", s.avg_degree);
  std::printf("max degree            %lld\n",
              static_cast<long long>(s.max_degree));
  std::printf("clustering coeff      %.4f\n", s.avg_clustering);
  std::printf("assortativity         %+.4f\n", s.assortativity);
  std::printf("components            %lld\n",
              static_cast<long long>(s.num_components));
  std::printf("giant component       %lld\n",
              static_cast<long long>(s.giant_component_size));
  std::printf("avg path length       %.3f (sampled)\n",
              s.approx_avg_path_length);
  std::printf("diameter (approx)     %lld\n",
              static_cast<long long>(s.approx_diameter));
  return 0;
}

int cmd_community(const Args& a) {
  CSRGraph g = load(a);
  if (g.directed()) {
    std::printf("folding directed input to undirected (as the paper does)\n");
    g = g.as_undirected();
  }
  const std::string algo = a.get("algo", "pma");
  WallTimer t;
  CommunityResult r;
  if (algo == "pma") {
    r = pma(g);
  } else if (algo == "pla") {
    r = pla(g);
  } else if (algo == "louvain") {
    r = louvain(g).community;
  } else if (algo == "plp") {
    r = label_propagation(g).community;
  } else if (algo == "pbd") {
    PBDParams p;
    p.stop.max_iterations = a.geti("max-iterations", 0);
    p.stop.stall_iterations = a.geti("stall", g.num_edges() / 8);
    p.sample_fraction = a.getf("sample-fraction", 0.05);
    r = pbd(g, p);
  } else if (algo == "gn") {
    DivisiveParams p;
    p.max_iterations = a.geti("max-iterations", 0);
    p.stall_iterations = a.geti("stall", g.num_edges() / 8);
    r = girvan_newman(g, p);
  } else if (algo == "spectral") {
    r = spectral_modularity(g);
  } else if (algo == "anneal") {
    r = anneal_modularity(g);
  } else {
    std::fprintf(
        stderr,
        "unknown algorithm: %s (pbd|pma|pla|louvain|plp|gn|spectral|anneal)\n",
        algo.c_str());
    return 2;
  }
  std::printf("%s: %lld communities, modularity q=%.4f (%.2fs)\n",
              algo.c_str(),
              static_cast<long long>(r.clustering.num_clusters), r.modularity,
              t.elapsed_s());
  if (a.has("out")) write_labels(r.clustering.membership, a.get("out"));
  return 0;
}

int cmd_partition(const Args& a) {
  const CSRGraph loaded = load(a);
  const CSRGraph g = loaded.directed() ? loaded.as_undirected() : loaded;
  const auto k = static_cast<std::int32_t>(a.geti("k", 2));
  const std::string method = a.get("method", "kway");
  WallTimer t;
  PartitionResult r;
  if (method == "kway") {
    r = multilevel_kway(g, k);
  } else if (method == "recursive") {
    r = multilevel_recursive_bisection(g, k);
  } else if (method == "lanczos") {
    r = spectral_partition(g, k, SpectralMethod::kLanczos);
  } else if (method == "rqi") {
    r = spectral_partition(g, k, SpectralMethod::kRQI);
  } else {
    std::fprintf(stderr,
                 "unknown method: %s (kway|recursive|lanczos|rqi)\n",
                 method.c_str());
    return 2;
  }
  if (!r.success) {
    std::printf("partitioning FAILED: %s\n", r.note.c_str());
    return 1;
  }
  std::printf("%s %d-way: edge cut %lld, balance %.3f (%.2fs)\n",
              method.c_str(), k, static_cast<long long>(r.edge_cut),
              r.imbalance, t.elapsed_s());
  if (a.has("out")) {
    std::vector<vid_t> labels(r.part.begin(), r.part.end());
    write_labels(labels, a.get("out"));
  }
  return 0;
}

int cmd_centrality(const Args& a) {
  const CSRGraph g = load(a);
  const std::string metric = a.get("metric", "degree");
  const auto top = static_cast<std::size_t>(a.geti("top", 10));
  WallTimer t;
  std::vector<double> score;
  if (metric == "degree") {
    score = degree_centrality(g);
  } else if (metric == "closeness") {
    const auto samples = static_cast<vid_t>(a.geti("samples", 0));
    score = samples > 0 ? closeness_centrality_sampled(g, samples)
                        : closeness_centrality(g);
  } else if (metric == "betweenness") {
    score = betweenness_centrality(g).vertex;
  } else if (metric == "stress") {
    score = stress_centrality(g);
  } else {
    std::fprintf(stderr,
                 "unknown metric: %s (degree|closeness|betweenness|stress)\n",
                 metric.c_str());
    return 2;
  }
  std::vector<vid_t> idx(score.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<vid_t>(i);
  const std::size_t k = std::min(top, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::int64_t>(k),
                    idx.end(),
                    [&](vid_t x, vid_t y) { return score[x] > score[y]; });
  std::printf("top %zu by %s (%.2fs):\n", k, metric.c_str(), t.elapsed_s());
  for (std::size_t i = 0; i < k; ++i)
    std::printf("  %2zu. v%-10lld %.6g\n", i + 1,
                static_cast<long long>(idx[i]),
                score[static_cast<std::size_t>(idx[i])]);
  return 0;
}

int cmd_pagerank(const Args& a) {
  CSRGraph g = load(a);
  if (g.directed()) {
    std::printf("folding directed input to undirected (as the paper does)\n");
    g = g.as_undirected();
  }
  PageRankParams p;
  p.damping = a.getf("damping", 0.85);
  p.max_iters = static_cast<int>(a.geti("iters", 50));
  p.tol = a.getf("tol", 1e-9);
  WallTimer t;
  const PageRankResult r = pagerank(g, p);
  const auto top = static_cast<std::size_t>(a.geti("top", 10));
  std::vector<vid_t> idx(r.rank.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<vid_t>(i);
  const std::size_t k = std::min(top, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::int64_t>(k),
                    idx.end(),
                    [&](vid_t x, vid_t y) { return r.rank[x] > r.rank[y]; });
  std::printf("pagerank: %d iterations, residual %.3g (%.2fs)\n", r.iterations,
              r.residual, t.elapsed_s());
  std::printf("top %zu by pagerank:\n", k);
  for (std::size_t i = 0; i < k; ++i)
    std::printf("  %2zu. v%-10lld %.6g\n", i + 1,
                static_cast<long long>(idx[i]),
                r.rank[static_cast<std::size_t>(idx[i])]);
  if (a.has("out")) {
    std::ofstream out(a.get("out"));
    for (std::size_t v = 0; v < r.rank.size(); ++v)
      out << v << ' ' << r.rank[v] << "\n";
    std::printf("wrote %zu ranks to %s\n", r.rank.size(),
                a.get("out").c_str());
  }
  return 0;
}

int cmd_robustness(const Args& a) {
  const CSRGraph loaded = load(a);
  const CSRGraph g = loaded.directed() ? loaded.as_undirected() : loaded;
  const std::string attack = a.get("attack", "degree");
  const auto steps = static_cast<int>(a.geti("steps", 20));
  std::vector<vid_t> order;
  if (attack == "degree") {
    order = attack_order_by_degree(g);
  } else if (attack == "random") {
    order = attack_order_random(g, static_cast<std::uint64_t>(a.geti("seed", 1)));
  } else {
    std::fprintf(stderr, "unknown attack: %s (degree|random)\n",
                 attack.c_str());
    return 2;
  }
  const RobustnessProfile p = robustness_profile(g, order, steps);
  std::printf("attack=%s  robustness index R=%.4f\n", attack.c_str(),
              p.index());
  std::printf("%10s %14s\n", "removed", "giant frac");
  for (std::size_t i = 0; i < p.giant_fraction.size(); ++i)
    std::printf("%9.0f%% %14.4f\n", 100.0 * p.fraction_removed[i],
                p.giant_fraction[i]);
  return 0;
}

// --------------------------------------------------------------------------
// The analytics daemon (docs/SERVICE.md) and its client.

/// The `POST /ingest` body inserting every edge of `g` once, rendered as
/// text: a document tree of a large preload costs ~600 B per record.
std::string preload_body(const CSRGraph& g) {
  std::string body = "{\"updates\":[";
  char buf[24];
  const char* sep = "";
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (const vid_t u : g.neighbors(v)) {
      if (!g.directed() && u > v) continue;  // one record per logical edge
      body += sep;
      body += "{\"op\":\"insert\",\"u\":";
      body.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
      body += ",\"v\":";
      body.append(buf, std::to_chars(buf, buf + sizeof buf, u).ptr);
      body += '}';
      sep = ",";
    }
  }
  body += "]}";
  return body;
}

int cmd_serve(const Args& a) {
  const bool directed = a.has("directed");
  // Preload loads first so the service is sized to the file's full vertex
  // count — an insert stream alone cannot create trailing isolated
  // vertices (the graph only grows to the largest referenced id).  The
  // file's graph and the request body are released before serving.
  vid_t n = a.geti("n", 0);
  server::HttpRequest preload;
  if (a.has("in")) {
    const CSRGraph g = load(a);
    n = std::max(n, g.num_vertices());
    preload.body = preload_body(g);
  }
  server::GraphService service(n, directed);

  // Push the preload through the same handler the wire uses.
  if (a.has("in")) {
    preload.method = "POST";
    preload.path = "/ingest";
    const server::HttpResponse resp = service.handle(preload);
    preload = {};
    if (resp.status != 200) {
      std::fprintf(stderr, "preload failed: %s\n", resp.body.c_str());
      return 1;
    }
    std::fprintf(stderr, "preloaded %s: %s\n", a.get("in").c_str(),
                 resp.body.c_str());
  }

  const std::string host = a.get("host", "127.0.0.1");
  const auto port = static_cast<int>(a.geti("port", 7077));
  server::HttpServer server(&service,
                            static_cast<int>(a.geti("http-threads", 4)));
  std::string err;
  if (!server.start(host, port, &err)) {
    std::fprintf(stderr, "cannot listen on %s:%d: %s\n", host.c_str(), port,
                 err.c_str());
    return 1;
  }
  std::printf("snap-service listening on %s:%d\n", host.c_str(),
              server.port());
  std::fflush(stdout);
  service.wait_for_shutdown();
  server.stop();
  std::printf("snap-service stopped after %llu requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

int cmd_query(const Args& a) {
  const std::string target = a.require("target");
  std::string body = a.get("body");
  if (a.has("body-file")) {
    std::ifstream in(a.get("body-file"), std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read --body-file %s\n",
                   a.get("body-file").c_str());
      return 1;
    }
    body.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string method = a.get("method", body.empty() ? "GET" : "POST");
  const server::HttpResult r =
      server::http_request(a.get("host", "127.0.0.1"),
                           static_cast<int>(a.geti("port", 7077)), method,
                           target, body);
  if (r.status == 0) {
    std::fprintf(stderr, "transport error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s\n", r.body.c_str());
  return r.ok() ? 0 : 1;
}

void usage() {
  std::printf(
      "snap-cli <command> [options]\n"
      "  generate   --type rmat|er|ws|grid|planted --out FILE [--n N] [--m M]\n"
      "             [--scale S] [--edge-factor F] [--k K] [--seed S]\n"
      "  convert    --in FILE --out FILE [--in-format F] [--out-format F]\n"
      "  summary    --in FILE [--path-samples N]\n"
      "  community  --in FILE [--algo pbd|pma|pla|louvain|plp|gn|spectral|anneal] [--out FILE]\n"
      "  partition  --in FILE --k K [--method kway|recursive|lanczos|rqi]\n"
      "  centrality --in FILE [--metric degree|closeness|betweenness|stress]\n"
      "             [--top N] [--samples N]\n"
      "  pagerank   --in FILE [--top N] [--iters N] [--damping D] [--tol T]\n"
      "             [--out FILE]\n"
      "  robustness --in FILE [--attack degree|random] [--steps N]\n"
      "  serve      [--host H] [--port P] [--n N] [--in FILE]\n"
      "             [--http-threads T]   (POST /shutdown stops it)\n"
      "  query      --target /stats [--host H] [--port P]\n"
      "             [--method GET|POST] [--body JSON | --body-file FILE]\n"
      "Common: --directed, --threads T\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (args.has("threads"))
    parallel::set_num_threads(static_cast<int>(args.geti("threads", 1)));
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "summary") return cmd_summary(args);
    if (cmd == "community") return cmd_community(args);
    if (cmd == "partition") return cmd_partition(args);
    if (cmd == "centrality") return cmd_centrality(args);
    if (cmd == "pagerank") return cmd_pagerank(args);
    if (cmd == "robustness") return cmd_robustness(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "query") return cmd_query(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
