// bench_e2e: the end-to-end benchmark of SNAP.
//
//   bench_e2e --workload NAME|all --seed S [--seconds T] [--trace FILE]
//             [--json FILE] [--corpus-dir DIR] [--commit SHA] [--tiny]
//
// Every workload is one session on one graph that exercises both paths a
// user takes: the offline path (load -> kernels) and the daemon
// (POST /ingest -> visible epoch, plus queries).  Set-up loads the SNAPB2
// file, preloads an in-process GraphService through POST /ingest exactly
// as `snap-cli serve --in` does, starts an HttpServer with 4 workers and
// pins the first snapshot.  The measured window of T seconds then gives
// most of its time to the path the workload is named for and a fixed
// sample count to the other path.  Workloads differ in graph, path and
// traffic shape; see e2ebench/README.md for why each exists.
//
// The seed picks the BFS and BC sources, the update stream and the
// readers' choices; the graph is the same corpus instance in every run, so
// the spread between seeds measures the benchmark, not the instance.
// Inputs are generated and caches warmed before any timer starts.  Every
// output is checked (see offline.hpp, service.hpp); the last line of stdout
// is one JSON object with `correct`, `attempted`, `failed` and `metrics`,
// and a wrong answer exits with status 1.
//
// --trace FILE reruns the window with spans recorded around every call
// into a layer, then measures the per-layer side metrics (layouts,
// partitioned kernels, a 1-thread pass, a direct stream replay) after the
// traced window, writes the spans to FILE and reports the per-layer
// metrics instead of the end-to-end ones.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "offline.hpp"
#include "service.hpp"
#include "snap/debug/check.hpp"
#include "snap/io/binary_io.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"
#include "snap/util/json.hpp"
#include "snap/util/parallel.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef SNAP_E2E_BUILD_TYPE
#define SNAP_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

namespace json = snap::json;
using snap::CSRGraph;
using snap::vid_t;

constexpr int kThreads = 4;  // kernel threads and HTTP workers
constexpr int kSetups = 5;   // set-ups per run; setup_s is their median
constexpr int kRounds = 4;   // alternations of the two paths per window

// What a round gives the path a workload is not named for: enough samples
// per run for that path's metrics to have a median, and no more.  The side
// samples exist because every run reports every metric.
constexpr int kSidePasses = 2;              // per round, service workloads
constexpr std::int64_t kSideBatches = 5;    // per round, offline workloads

enum class Path { kOffline, kService };

struct Workload {
  const char* name;
  const char* instance;
  const char* tiny_instance;
  Path path;    ///< the path that gets the window beyond the side samples
  Shape shape;  ///< traffic of the service slices
};

// The offline workloads' slices carry the ingest traffic: of the two
// shapes, its writer batches and point reads are cheap enough to give
// every service metric a median within a short slice.
constexpr Workload kWorkloads[] = {
    {"offline-rmat", "rmat16", "rmat12", Path::kOffline, Shape::kIngest},
    {"offline-road", "road-256", "road-64", Path::kOffline, Shape::kIngest},
    {"service-ingest", "rmat16", "rmat12", Path::kService, Shape::kIngest},
    {"service-query", "rmat16", "rmat12", Path::kService, Shape::kQuery},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of the result line, each with a regression bound
/// in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"modularity", "Q"}};

/// End-to-end metrics that are measured and printed but carry no bound: on
/// a shared host their medians drift with the host's speed by more than a
/// bound may be (see README.md), so they are read with paired runs instead.
/// Visibility has a median only: an open-loop writer at 2 batches/s leaves
/// too few batches for an upper percentile to have ten samples beyond it.
constexpr MetricDef kUnbounded[] = {
    {"pipeline_s", "s"},        {"bfs_mteps", "MTEPS"},
    {"cc_s", "s"},              {"pagerank_s", "s"},
    {"bc_s", "s"},              {"louvain_s", "s"},
    {"ingest_eps", "updates/s"}, {"visible_p50_ms", "ms"},
    {"query_p50_ms", "ms"},     {"query_p99_ms", "ms"},
    {"query_qps", "1/s"},       {"window_peak_rss_mb", "MB"},
};

/// Per-layer metrics; the per-route server rows are generated from
/// kRouteNames.
const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"io.read_s", "s"},
        {"io.read_gbps", "GB/s"},
        {"graph.relabel_degree_s", "s"},
        {"graph.relabel_hub_s", "s"},
        {"graph.bfs_degree_s", "s"},
        {"graph.bfs_hub_s", "s"},
        {"graph.compress_s", "s"},
        {"graph.compressed_bytes_per_arc", "B/arc"},
        {"graph.bfs_compressed_s", "s"},
        {"graph.pagerank_compressed_s", "s"},
        {"graph.reorder_breakeven_runs", "runs"},
        {"kernels.bfs_levels", "count"},
        {"kernels.bfs_pull_levels", "count"},
        {"kernels.bfs_us_per_level", "us"},
        {"kernels.bfs_edges_traversed", "count"},
        {"kernels.cc_components", "count"},
        {"kernels.pagerank_computed_gb", "GB"},
        {"kernels.pagerank_computed_gbps", "GB/s"},
        {"kernels.bfs_t1_s", "s"},
        {"kernels.cc_t1_s", "s"},
        {"kernels.pagerank_t1_s", "s"},
        {"kernels.bfs_speedup", "x"},
        {"kernels.cc_speedup", "x"},
        {"kernels.pagerank_speedup", "x"},
        {"centrality.bc_s_per_source", "s"},
        {"centrality.bc_t1_s", "s"},
        {"centrality.bc_speedup", "x"},
        {"community.louvain_levels", "count"},
        {"community.louvain_sweeps", "count"},
        {"community.louvain_moves", "count"},
        {"community.louvain_level0_sweeps", "count"},
        {"community.louvain_level0_moves", "count"},
        {"community.louvain_moves_per_sweep", "count"},
        {"community.louvain_refine_moves", "count"},
        {"community.louvain_communities", "count"},
        {"community.louvain_t1_s", "s"},
        {"community.louvain_speedup", "x"},
        {"partition.build_s", "s"},
        {"partition.boundary_arc_frac", "fraction"},
        {"partition.bfs_s", "s"},
        {"partition.cc_s", "s"},
        {"partition.pagerank_s", "s"},
        {"partition.exchange_msgs_per_iter", "count"},
        {"partition.exchange_naive_per_iter", "count"},
        {"partition.combiner_ratio", "x"},
        {"stream.canonicalize_ms", "ms"},
        {"stream.apply_ms", "ms"},
        {"stream.publish_ms", "ms"},
        {"stream.apply_eager_ms", "ms"},
        {"stream.publish_share", "fraction"},
        {"stream.canonical_arcs", "count"},
        {"stream.applied_inserts", "count"},
        {"stream.applied_deletes", "count"},
        {"stream.snapshot_mb", "MB"},
        {"stream.live_snapshots_max", "count"},
    };
    static std::vector<std::string> route_names;  // keeps the c_str()s alive
    for (const char* r : kRouteNames)
      for (const char* suffix : {".p50_ms", ".p99_ms", ".count", ".handler_ms"})
        route_names.push_back(std::string("server.") + r + suffix);
    for (const std::string& n : route_names)
      d.push_back({n.c_str(), n.ends_with(".count") ? "count" : "ms"});
    const std::vector<MetricDef> tail = {
        {"server.http_overhead_ms", "ms"},
        {"server.requests_served", "count"},
        {"server.writer_lateness_p99_ms", "ms"},
        {"util.json_parse_ms", "ms"},
        {"util.team_fork_us", "us"},
        {"util.threads", "count"},
        {"self.bench_s", "s"},
        {"self.kernels_s", "s"},
        {"self.centrality_s", "s"},
        {"self.community_s", "s"},
        {"self.server_s", "s"},
        {"self.http_s", "s"},
        {"trace.overhead", "x"},
        {"trace.offline_coverage", "x"},
        {"trace.service_coverage", "x"},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
  }();
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20;
  std::string trace_path;
  std::string json_path;
  std::string corpus_dir = ".bench_build/corpus";
  std::string commit;
  bool tiny = false;
};

std::string flag(int argc, char** argv, const char* name,
                 const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

// --------------------------------------------------------------------------
// Host and build record.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();  // drop the NUL padding
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Whether the compiler instrumented this build with a sanitizer, however
/// the flag reached it.
bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return false;
}

bool aslr_off() { return (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0; }

json::Value host_record(const Options& o) {
  json::Value h = json::Value::object();
  h.set("cpu", cpu_model());
  h.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  h.set("llc_mb", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / 1048576.0);
  h.set("compiler", compiler());
  h.set("build_type", SNAP_E2E_BUILD_TYPE);
  h.set("snap_check_level", snap::debug::kCheckLevel);
  h.set("sanitized", sanitized());
  h.set("aslr", aslr_off() ? "off" : "on");
  h.set("threads", kThreads);
  h.set("seed", static_cast<std::int64_t>(o.seed));
  h.set("commit", o.commit.empty() ? "unknown" : o.commit);
  return h;
}

// --------------------------------------------------------------------------
// One workload.

/// Everything set-up produces: the loaded graph, the preloaded service and
/// the server in front of it.
struct Session {
  CSRGraph graph;
  std::unique_ptr<snap::server::GraphService> service;
  std::unique_ptr<snap::server::HttpServer> server;
};

struct SessionWindow {
  std::vector<PassTimes> passes;
  WindowResult service;
};

struct Result {
  std::map<std::string, double> metrics;
  CheckLog checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  [[nodiscard]] bool correct() const { return failed == 0; }
};

template <typename F>
double median_of(const std::vector<PassTimes>& passes, F&& field) {
  std::vector<double> v;
  for (const PassTimes& p : passes) v.push_back(field(p));
  return median(v);
}

template <typename F>
double mean_of(const std::vector<PassTimes>& passes, F&& field) {
  std::vector<double> v;
  for (const PassTimes& p : passes) v.push_back(field(p));
  return mean(v);
}

std::unique_ptr<snap::server::HttpServer> start_server(
    snap::server::HttpHandler* handler, CheckLog& log) {
  auto server = std::make_unique<snap::server::HttpServer>(handler, kThreads);
  std::string err;
  log.expect(server->start("127.0.0.1", 0, &err), "server start: " + err);
  return server;
}

/// Set up kSetups times, each from nothing: read the SNAPB2 file, preload a
/// fresh GraphService through POST /ingest, start its server and pin the
/// first snapshot.  The last set-up is kept.
void set_up(Session& s, const std::string& path,
            const snap::server::HttpRequest& preload, vid_t n,
            std::vector<double>& setup_s, std::vector<double>& read_s,
            CheckLog& checks) {
  for (int i = 0; i < kSetups; ++i) {
    // The server goes before the service its workers call into.
    s.server.reset();
    s.service.reset();
    s.graph = CSRGraph{};
    const auto t0 = Clock::now();
    s.graph = snap::io::read_binary(path);
    read_s.push_back(seconds_between(t0, Clock::now()));
    s.service = std::make_unique<snap::server::GraphService>(n);
    const snap::server::HttpResponse resp = s.service->handle(preload);
    checks.expect(resp.status == 200, "preload: " + resp.body);
    s.server = start_server(s.service.get(), checks);
    (void)s.service->streaming().pin();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
}

/// What the windows of one run share, and the tallies behind the result's
/// `attempted` and `failed`.
struct RunState {
  const Workload& w;
  const Options& o;
  Session& s;
  OfflinePipeline& pipe;
  UpdateStream& stream;
  CheckLog& checks;
  std::vector<Batch> sent;  ///< every batch the service accepted, in order
  RequestLog requests;      ///< every client request, probes included
  std::uint64_t passes = 0;

  /// One measured window on the current server, in kRounds rounds.  Each
  /// round first takes the side samples of the path the workload is not
  /// named for (kSidePasses passes, or a service slice of kSideBatches
  /// writer batches) and then gives the rest of the round to its own path.
  /// Alternating spreads both paths over the whole window: on a shared
  /// host, contention from other tenants comes in episodes of seconds, and
  /// a path confined to one stretch would inherit whatever that stretch
  /// saw.
  SessionWindow window() {
    SessionWindow out;
    const auto start = Clock::now();
    const double round_s = o.seconds / kRounds;
    std::vector<double> pass_s;
    auto pass = [&] {
      out.passes.push_back(pipe.timed_pass(checks));
      pass_s.push_back(out.passes.back().wall_s);
    };
    auto slice = [&](int round, double seconds, std::int64_t max_batches) {
      out.service.merge(run_window(s.server->port(), w.shape, seconds,
                                   max_batches, s.graph.num_vertices(),
                                   o.seed + static_cast<std::uint64_t>(round),
                                   stream, sent));
    };
    for (int round = 0; round < kRounds; ++round) {
      const double round_end = round_s * (round + 1);
      if (w.path == Path::kOffline) {
        slice(round, round_s, kSideBatches);
        do {
          pass();
        } while (seconds_between(start, Clock::now()) + median(pass_s) <=
                 round_end);
      } else {
        for (int i = 0; i < kSidePasses; ++i) pass();
        const double left = round_end - seconds_between(start, Clock::now());
        slice(round, std::max(left, round_s / 10), 0);
      }
    }
    requests.merge(out.service.requests);
    passes += out.passes.size();
    return out;
  }

  /// The post-window checks on the quiesced service; returns the probes.
  RequestLog probe() {
    RequestLog probes;
    check_service(s.server->port(), s.graph, sent, o.seed, checks, probes);
    requests.merge(probes);
    return probes;
  }

  /// Stop the server, once it is idle, after checking that it answered
  /// exactly the requests in `served`.
  void stop_server(const RequestLog& served) {
    checks.expect(s.server->requests_served() == served.responses,
                  "server requests_served differs from the clients' count");
    s.server->stop();
  }
};

void end_to_end_metrics(const SessionWindow& s, const OfflinePipeline& pipe,
                        std::map<std::string, double>& m) {
  const double searched = static_cast<double>(OfflinePipeline::kBfsSources) *
                          static_cast<double>(pipe.giant_edges());
  m["pipeline_s"] = median_of(s.passes, [](auto& p) { return p.pass_s; });
  m["bfs_mteps"] =
      median_of(s.passes, [&](auto& p) { return searched / p.bfs_s / 1e6; });
  m["cc_s"] = median_of(s.passes, [](auto& p) { return p.cc_s; });
  m["pagerank_s"] = median_of(s.passes, [](auto& p) { return p.pagerank_s; });
  m["bc_s"] = median_of(s.passes, [](auto& p) { return p.bc_s; });
  m["louvain_s"] = median_of(s.passes, [](auto& p) { return p.louvain_s; });
  m["modularity"] = pipe.modularity();
  const WindowResult& w = s.service;
  // Per second of ingest service time: the rate the daemon sustains while
  // it works on writes.  An open-loop writer offers a fixed rate, so
  // records / window would only restate that rate.
  m["ingest_eps"] = w.ingest_busy_s > 0
                        ? static_cast<double>(w.records) / w.ingest_busy_s
                        : 0.0;
  m["visible_p50_ms"] = quantile(w.visible_ms, 0.50);
  m["query_p50_ms"] = quantile(w.read_ms, 0.50);
  m["query_p99_ms"] = quantile(w.read_ms, 0.99);
  m["query_qps"] = static_cast<double>(w.read_ms.size()) / w.window_s;
}

/// Handler time per route, from the server-layer spans.
std::array<std::vector<double>, kNumRoutes> handler_ms(
    const std::vector<Span>& spans) {
  std::array<std::vector<double>, kNumRoutes> out;
  for (const Span& s : spans) {
    if (s.layer != Layer::kServer) continue;
    for (int r = 0; r < kNumRoutes; ++r)
      if (std::strcmp(s.name, kRouteNames[r]) == 0)
        out[r].push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

/// The traced run: the same window again behind a TracingHandler with spans
/// on, the service checks, then the side measurements, which never overlap
/// the traced window.  `plain` is the untraced window of the same run.
void per_layer_metrics(RunState& run, const SessionWindow& plain,
                       double read_s, double file_bytes,
                       std::map<std::string, double>& m) {
  Session& s = run.s;
  const OfflinePipeline& pipe = run.pipe;
  TracingHandler tracing(s.service.get());
  s.server = start_server(&tracing, run.checks);
  Tracer tracer;
  set_active_tracer(&tracer);
  const std::int64_t w0 = tracer.now_ns();
  const SessionWindow tw = run.window();
  const std::int64_t w1 = tracer.now_ns();
  RequestLog served = tw.service.requests;
  served.merge(run.probe());
  run.stop_server(served);
  m["server.requests_served"] = static_cast<double>(s.server->requests_served());
  s.server.reset();  // before `tracing` goes away

  auto med = [&](auto field) { return median_of(plain.passes, field); };
  const double bfs4 = med([](auto& p) { return p.bfs_s; });
  const LayoutMetrics lay = measure_layouts(s.graph, pipe.bfs_sources(), bfs4);
  const PartitionMetrics part = measure_partition(s.graph, pipe, run.checks);
  PassTimes t1;
  {
    snap::parallel::ThreadScope one(1);
    t1 = run.pipe.timed_pass(run.checks);
    ++run.passes;
  }
  const StreamMetrics st = replay_stream(s.graph, run.w.shape, run.o.seed);
  double fork_us = 0;
  {
    ScopedSpan span("run_team", Layer::kUtil);
    constexpr int kForks = 2000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kForks; ++i) snap::parallel::run_team(kThreads, [](int) {});
    fork_us = seconds_between(t0, Clock::now()) * 1e6 / kForks;
  }
  set_active_tracer(nullptr);

  const std::vector<Span> spans = tracer.collect();
  const LayerTimes window = layer_times(spans, w0, w1);
  if (!write_trace(run.o.trace_path, spans, window))
    std::fprintf(stderr, "cannot write trace %s\n", run.o.trace_path.c_str());

  const double cc4 = med([](auto& p) { return p.cc_s; });
  const double pr4 = med([](auto& p) { return p.pagerank_s; });
  const double bc4 = med([](auto& p) { return p.bc_s; });
  const double lv4 = med([](auto& p) { return p.louvain_s; });
  const KernelCounts& k = pipe.counts();
  m["io.read_s"] = read_s;
  m["io.read_gbps"] = file_bytes / read_s / 1e9;
  m["graph.relabel_degree_s"] = lay.relabel_degree_s;
  m["graph.relabel_hub_s"] = lay.relabel_hub_s;
  m["graph.bfs_degree_s"] = lay.bfs_degree_s;
  m["graph.bfs_hub_s"] = lay.bfs_hub_s;
  m["graph.compress_s"] = lay.compress_s;
  m["graph.compressed_bytes_per_arc"] = lay.compressed_bytes_per_arc;
  m["graph.bfs_compressed_s"] = lay.bfs_compressed_s;
  m["graph.pagerank_compressed_s"] = lay.pagerank_compressed_s;
  m["graph.reorder_breakeven_runs"] = lay.reorder_breakeven_runs;
  m["kernels.bfs_levels"] = static_cast<double>(k.bfs_levels);
  m["kernels.bfs_pull_levels"] = static_cast<double>(k.bfs_pull_levels);
  m["kernels.bfs_us_per_level"] =
      bfs4 * 1e6 / static_cast<double>(std::max<std::int64_t>(1, k.bfs_levels));
  m["kernels.bfs_edges_traversed"] =
      static_cast<double>(OfflinePipeline::kBfsSources) *
      static_cast<double>(pipe.giant_edges());
  m["kernels.cc_components"] = static_cast<double>(k.cc_components);
  m["kernels.pagerank_computed_gb"] = k.pagerank_bytes / 1e9;
  m["kernels.pagerank_computed_gbps"] = k.pagerank_bytes / pr4 / 1e9;
  m["kernels.bfs_t1_s"] = t1.bfs_s;
  m["kernels.cc_t1_s"] = t1.cc_s;
  m["kernels.pagerank_t1_s"] = t1.pagerank_s;
  m["kernels.bfs_speedup"] = t1.bfs_s / bfs4;
  m["kernels.cc_speedup"] = t1.cc_s / cc4;
  m["kernels.pagerank_speedup"] = t1.pagerank_s / pr4;
  m["centrality.bc_s_per_source"] = bc4 / OfflinePipeline::kBcSources;
  m["centrality.bc_t1_s"] = t1.bc_s;
  m["centrality.bc_speedup"] = t1.bc_s / bc4;
  m["community.louvain_levels"] = static_cast<double>(k.louvain_levels);
  m["community.louvain_sweeps"] = static_cast<double>(k.louvain_sweeps);
  m["community.louvain_moves"] = static_cast<double>(k.louvain_moves);
  m["community.louvain_level0_sweeps"] =
      static_cast<double>(k.louvain_level0_sweeps);
  m["community.louvain_level0_moves"] =
      static_cast<double>(k.louvain_level0_moves);
  m["community.louvain_moves_per_sweep"] =
      static_cast<double>(k.louvain_moves) /
      static_cast<double>(std::max<std::int64_t>(1, k.louvain_sweeps));
  m["community.louvain_refine_moves"] =
      static_cast<double>(k.louvain_refine_moves);
  m["community.louvain_communities"] =
      static_cast<double>(k.louvain_communities);
  m["community.louvain_t1_s"] = t1.louvain_s;
  m["community.louvain_speedup"] = t1.louvain_s / lv4;
  m["partition.build_s"] = part.build_s;
  m["partition.boundary_arc_frac"] = part.boundary_arc_frac;
  m["partition.bfs_s"] = part.bfs_s;
  m["partition.cc_s"] = part.cc_s;
  m["partition.pagerank_s"] = part.pagerank_s;
  m["partition.exchange_msgs_per_iter"] = part.exchange_msgs_per_iter;
  m["partition.exchange_naive_per_iter"] = part.exchange_naive_per_iter;
  m["partition.combiner_ratio"] = part.combiner_ratio;
  m["stream.canonicalize_ms"] = st.canonicalize_ms;
  m["stream.apply_ms"] = st.apply_ms;
  m["stream.publish_ms"] = st.publish_ms;
  m["stream.apply_eager_ms"] = st.apply_eager_ms;
  m["stream.publish_share"] = st.publish_share;
  m["stream.canonical_arcs"] = st.canonical_arcs;
  m["stream.applied_inserts"] = st.applied_inserts;
  m["stream.applied_deletes"] = st.applied_deletes;
  m["stream.snapshot_mb"] = st.snapshot_mb;
  m["stream.live_snapshots_max"] =
      static_cast<double>(tw.service.live_snapshots_max);

  const auto handler = handler_ms(spans);
  for (int r = 0; r < kNumRoutes; ++r) {
    const std::string base = std::string("server.") + kRouteNames[r];
    const auto& lat = served.route_ms[r];
    m[base + ".p50_ms"] = quantile(lat, 0.50);
    m[base + ".p99_ms"] = quantile(lat, 0.99);
    m[base + ".count"] = static_cast<double>(lat.size());
    m[base + ".handler_ms"] = mean(handler[r]);
  }
  const auto http = static_cast<std::size_t>(Layer::kHttp);
  m["server.http_overhead_ms"] =
      window.count[http] > 0
          ? window.self_s[http] * 1e3 / static_cast<double>(window.count[http])
          : 0.0;
  m["server.writer_lateness_p99_ms"] = quantile(tw.service.lateness_ms, 0.99);
  m["util.json_parse_ms"] = st.json_parse_ms;
  m["util.team_fork_us"] = fork_us;
  m["util.threads"] = snap::parallel::num_threads();
  for (const Layer l : {Layer::kBench, Layer::kKernels, Layer::kCentrality,
                        Layer::kCommunity, Layer::kServer, Layer::kHttp})
    m[std::string("self.") + layer_name(l) + "_s"] =
        window.self_s[static_cast<std::size_t>(l)];

  // Tracing overhead on the workload's headline metric.
  auto eps = [](const WindowResult& r) {
    return static_cast<double>(r.records) / r.ingest_busy_s;
  };
  if (run.w.path == Path::kOffline)
    m["trace.overhead"] = median_of(tw.passes, [](auto& p) { return p.pass_s; }) /
                          med([](auto& p) { return p.pass_s; });
  else if (run.w.shape == Shape::kIngest)
    m["trace.overhead"] = eps(plain.service) / eps(tw.service);
  else
    m["trace.overhead"] = static_cast<double>(plain.service.read_ms.size()) /
                          static_cast<double>(tw.service.read_ms.size());

  // The self times of one span tree add up to its root's duration, so the
  // traced window's pass and read trees are compared with the untraced
  // per-operation time they decompose.
  double pass_s = 0;
  double read_ms = 0;
  std::size_t passes = 0;
  std::size_t reads = 0;
  for (const Span& sp : spans) {
    if (sp.parent != 0 || sp.start_ns < w0 || sp.start_ns >= w1) continue;
    const double d = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
    if (std::strcmp(sp.name, "pass") == 0) {
      pass_s += d;
      ++passes;
    } else if (sp.layer == Layer::kHttp && std::strncmp(sp.name, "writer.", 7) != 0) {
      read_ms += d * 1e3;
      ++reads;
    }
  }
  m["trace.offline_coverage"] =
      pass_s / (static_cast<double>(passes) *
                mean_of(plain.passes, [](auto& p) { return p.wall_s; }));
  m["trace.service_coverage"] =
      read_ms / (static_cast<double>(reads) * mean(plain.service.read_ms));
}

Result run_workload(const Workload& w, const Options& o) {
  Result res;
  const Instance* inst = find_instance(o.tiny ? w.tiny_instance : w.instance);
  const std::string path = ensure_cached(*inst, o.corpus_dir);

  // Client-side input, rendered before any timer: the preload request.
  snap::server::HttpRequest preload;
  preload.method = "POST";
  preload.path = "/ingest";
  vid_t n = 0;
  {
    const CSRGraph g = snap::io::read_binary(path);
    n = g.num_vertices();
    preload.body = render_updates(preload_records(g));
  }

  Session s;
  std::vector<double> setup_s;
  std::vector<double> read_s;
  set_up(s, path, preload, n, setup_s, read_s, res.checks);

  // The memory of set-up alone: loading and serving the graph.  The window
  // adds to it by how many snapshot images its traffic keeps alive at
  // once, which varies from run to run, so that peak is reported unbounded.
  const double setup_rss_mb = peak_rss_mb();
  OfflinePipeline pipe(s.graph, o.seed);
  pipe.reference_pass(res.checks);
  UpdateStream stream(s.graph, o.seed, writer_spec(w.shape));
  RunState run{w, o, s, pipe, stream, res.checks, {}, {}, 0};

  const SessionWindow plain = run.window();
  // Before the probes, whose reference graph is the checker's memory.
  const double window_rss_mb = peak_rss_mb();
  if (o.trace_path.empty()) {
    RequestLog served = plain.service.requests;
    served.merge(run.probe());
    run.stop_server(served);
    res.metrics["setup_s"] = median(setup_s);
    res.metrics["peak_rss_mb"] = setup_rss_mb;
    res.metrics["window_peak_rss_mb"] = window_rss_mb;
    end_to_end_metrics(plain, pipe, res.metrics);
  } else {
    run.stop_server(plain.service.requests);
    per_layer_metrics(run, plain, median(read_s),
                      static_cast<double>(std::filesystem::file_size(path)),
                      res.metrics);
  }
  res.attempted = run.passes + run.requests.attempted + res.checks.attempted;
  res.failed = run.requests.failed + res.checks.failed;
  return res;
}

// --------------------------------------------------------------------------
// Output.

/// The metrics a run reports on its result line.
std::span<const MetricDef> reported(bool traced) {
  if (traced) return per_layer_defs();
  return kEndToEnd;
}

json::Value metric_values(const Result& r, std::span<const MetricDef> defs) {
  json::Value metrics = json::Value::object();
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    json::Value v = json::Value::object();
    v.set("value", it == r.metrics.end() ? 0.0 : it->second);
    v.set("unit", d.unit);
    metrics.set(d.name, v);
  }
  return metrics;
}

json::Value result_line(const Result& r, bool traced) {
  json::Value out = json::Value::object();
  out.set("correct", r.correct());
  out.set("attempted", static_cast<std::int64_t>(r.attempted));
  out.set("failed", static_cast<std::int64_t>(r.failed));
  out.set("metrics", metric_values(r, reported(traced)));
  return out;
}

void print_table(const json::Value& metrics) {
  for (const auto& [name, member] : metrics.members())
    std::printf("  %-34s %14.6g %s\n", name.c_str(),
                member.get("value").as_double(),
                member.get("unit").as_string().c_str());
}

/// Every metric the report promises must have been measured.
bool complete(const Result& r, bool traced) {
  bool ok = true;
  auto check = [&](std::span<const MetricDef> defs) {
    for (const MetricDef& d : defs) {
      if (r.metrics.count(d.name) != 0) continue;
      std::fprintf(stderr, "metric %s was not measured\n", d.name);
      ok = false;
    }
  };
  check(reported(traced));
  if (!traced) check(kUnbounded);
  return ok;
}

/// Re-execute with address-space randomization off, so the virtual layout
/// of the big arrays, and with it the cache conflicts between them, is the
/// same in every run.  With it on, connected_components alone runs at one
/// of two speeds, 1.6x apart, depending on where its arrays land.  Returns
/// only when the re-exec is not possible, and the run then goes on as is.
void exec_without_aslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) == -1)
    return;
  execv(argv[0], argv);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  exec_without_aslr(argv);
  Options o;
  o.workload = flag(argc, argv, "--workload");
  o.seed = std::strtoull(flag(argc, argv, "--seed", "0").c_str(), nullptr, 10);
  o.seconds = std::atof(flag(argc, argv, "--seconds", "20").c_str());
  o.trace_path = flag(argc, argv, "--trace");
  o.json_path = flag(argc, argv, "--json");
  o.corpus_dir = flag(argc, argv, "--corpus-dir", o.corpus_dir);
  o.commit = flag(argc, argv, "--commit");
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--tiny") == 0) o.tiny = true;

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);
  if (selected.empty() || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME|all --seed S [--seconds T]"
                 " [--trace FILE] [--json FILE] [--corpus-dir DIR]"
                 " [--commit SHA] [--tiny]\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  if (snap::debug::kCheckLevel >= 2 || sanitized()) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to report numbers from a "
                 "SNAP_CHECK_LEVEL=%d%s build; they measure a different "
                 "program\n",
                 snap::debug::kCheckLevel, sanitized() ? " sanitizer" : "");
    return 2;
  }
  snap::parallel::set_num_threads(kThreads);
  const json::Value host = host_record(o);
  std::printf("host %s\n", host.dump().c_str());

  bool all_correct = true;
  const bool traced = !o.trace_path.empty();
  for (const Workload* w : selected) {
    Options wo = o;
    if (traced && selected.size() > 1)
      wo.trace_path = o.trace_path + "." + w->name;
    const Result r = run_workload(*w, wo);
    const bool ok = r.correct() && complete(r, traced);
    all_correct = all_correct && ok;
    std::printf("workload %s seed %llu: %s (%llu attempted, %llu failed)\n",
                w->name, static_cast<unsigned long long>(o.seed),
                ok ? "correct" : "WRONG",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const std::string& f : r.checks.failures)
      std::printf("  failed check: %s\n", f.c_str());
    json::Value line = result_line(r, traced);
    if (!ok) line.set("correct", false);
    print_table(line.get("metrics"));
    const json::Value unbounded =
        traced ? json::Value::object() : metric_values(r, kUnbounded);
    if (!traced) {
      std::printf("  measured, without a bound:\n");
      print_table(unbounded);
    }
    if (!o.json_path.empty()) {
      json::Value rec = line;
      if (!traced) rec.set("unbounded", unbounded);
      rec.set("workload", w->name);
      rec.set("host", host);
      std::ofstream(selected.size() > 1 ? o.json_path + "." + w->name
                                        : o.json_path)
          << rec.dump() << "\n";
    }
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
  }
  return all_correct ? 0 : 1;
}
