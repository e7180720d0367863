// Analytics-service replay bench: stream a corpus instance's edges through
// the daemon's POST /ingest over loopback HTTP while reader threads sustain
// query load, and report ingest edges/s + reader qps.
//
//   bench_service [--smoke] [--json out.json] [--corpus NAME]
//
// Phases (bench_compare keys):
//   direct_apply : the same update stream applied straight through
//                  StreamingGraph::apply with eager snapshots — the
//                  in-process ceiling the HTTP path is measured against;
//                  the median of 5 runs, each on a fresh graph, so the
//                  process's cold start does not land in one timing.
//   replay_0r    : stream POSTed batch-by-batch to /ingest, no readers.
//   replay_4r    : same, with 4 reader threads hammering cheap queries
//                  over keep-alive connections.
//   qps_4r       : the reader-side throughput during replay_4r.
//   preload:*    : one body holding every edge, in the shape `snap-cli serve
//                  --in` renders, handled by a fresh service — serial (one
//                  thread) and parallel (every thread); decode:* times
//                  server::decode_ingest alone on the same body,
//                  canonicalize:* UpdateBatch::canonicalize alone on its
//                  decoded batch, and preload_records counts its records
//                  (an exact gate).
//   decode_sweep : decode_ingest on flat bodies of 64 KiB to 16 MiB at 1 and
//                  4 threads — the data behind kParallelDecodeCutoff.
//
// The acceptance headline: replay_4r ingest stays within 2x of replay_0r —
// readers answer from pinned snapshots and must not block the writer.
// Correctness is asserted, not assumed: after each replay the service's
// /stats edge count must equal the direct-apply reference graph's.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/json.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"
#include "snap/util/timer.hpp"

namespace {

using snap::CSRGraph;
using snap::vid_t;
using snap::server::GraphService;
using snap::server::HttpClient;
using snap::server::HttpResult;
using snap::server::HttpServer;
using snapbench::JsonReport;

struct Edge {
  vid_t u;
  vid_t v;
};

/// The replay stream: every logical edge of `g` once, in a seeded shuffle
/// (so ingest order is not the CSR order the generator produced).
std::vector<Edge> edge_stream(const CSRGraph& g, std::uint64_t seed) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    for (const vid_t u : g.neighbors(v))
      if (g.directed() || u <= v) edges.push_back({v, u});
  snap::SplitMix64 rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[static_cast<std::size_t>(
                                rng.next_bounded(static_cast<std::uint64_t>(i)))]);
  return edges;
}

/// Pre-rendered /ingest bodies, one per batch — body assembly is client
/// work and stays outside the timed window.
std::vector<std::string> ingest_bodies(const std::vector<Edge>& edges,
                                       std::size_t batch_size) {
  std::vector<std::string> bodies;
  std::size_t at = 0;
  while (at < edges.size()) {
    const std::size_t hi = std::min(at + batch_size, edges.size());
    snap::json::Value updates = snap::json::Value::array();
    for (std::size_t i = at; i < hi; ++i) {
      snap::json::Value rec = snap::json::Value::object();
      rec.set("op", "insert");
      rec.set("u", edges[i].u);
      rec.set("v", edges[i].v);
      rec.set("time", static_cast<std::int64_t>(i));
      updates.push_back(rec);
    }
    snap::json::Value doc = snap::json::Value::object();
    doc.set("updates", updates);
    bodies.push_back(doc.dump());
    at = hi;
  }
  return bodies;
}

constexpr int kReps = 5;

/// `kReps` timings of `run()`, each after `prepare()` (untimed).
template <typename Prepare, typename Run>
std::vector<double> time_reps(Prepare&& prepare, Run&& run) {
  std::vector<double> s;
  for (int r = 0; r < kReps; ++r) {
    prepare();
    snap::WallTimer timer;
    run();
    s.push_back(timer.elapsed_s());
  }
  return s;
}

double median(std::vector<double> s) {
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

/// In-process ceiling: the same batches through apply(), eager snapshots on
/// (that is what the service pays per epoch).  `kReps` timings, each on a
/// fresh graph with its batches built untimed; *final_edges gets the edge
/// count for the correctness checks.
std::vector<double> run_direct(vid_t n, const std::vector<Edge>& edges,
                               std::size_t batch_size,
                               snap::eid_t* final_edges) {
  std::unique_ptr<snap::stream::StreamingGraph> sg;
  std::vector<snap::stream::UpdateBatch> batches;
  const std::vector<double> s = time_reps(
      [&] {
        sg = std::make_unique<snap::stream::StreamingGraph>(
            n, /*directed=*/false);
        sg->set_eager_snapshots(true);
        batches.clear();
        for (std::size_t at = 0; at < edges.size(); at += batch_size) {
          const std::size_t hi = std::min(at + batch_size, edges.size());
          snap::stream::UpdateBatch& b = batches.emplace_back();
          for (std::size_t i = at; i < hi; ++i)
            b.insert(edges[i].u, edges[i].v, static_cast<std::uint64_t>(i));
        }
      },
      [&] {
        for (auto& b : batches) sg->apply(std::move(b));
      });
  *final_edges = sg->pin()->graph().num_edges();
  return s;
}

struct ReplayResult {
  double ingest_s = 0;   ///< writer wall time over all /ingest posts
  double qps = 0;        ///< reader queries/s during the ingest window
  snap::eid_t edges = 0; ///< /stats edge count after the replay
};

/// One replay: a fresh service, `readers` query threads, one writer
/// streaming the pre-rendered bodies.
ReplayResult run_replay(vid_t n, const std::vector<std::string>& bodies,
                        int readers) {
  GraphService service(n, /*directed=*/false);
  HttpServer server(&service, /*threads=*/readers + 2);
  std::string err;
  if (!server.start("127.0.0.1", 0, &err)) {
    std::fprintf(stderr, "bench_service: cannot start server: %s\n",
                 err.c_str());
    std::exit(1);
  }
  const int port = server.port();

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> reads{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([port, r, n, &done, &reads] {
      HttpClient client;
      std::string cerr;
      if (!client.connect("127.0.0.1", port, &cerr)) return;
      snap::SplitMix64 rng(static_cast<std::uint64_t>(r) * 7919 + 1);
      while (!done.load(std::memory_order_acquire)) {
        const auto v = static_cast<vid_t>(
            rng.next_bounded(static_cast<std::uint64_t>(n)));
        const char* target = rng.next_bounded(8) == 0 ? "/stats" : nullptr;
        const HttpResult res =
            target != nullptr
                ? client.request("GET", target)
                : client.request("GET", "/degree/" + std::to_string(v));
        if (!res.ok()) return;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  HttpClient writer;
  if (!writer.connect("127.0.0.1", port, &err)) {
    std::fprintf(stderr, "bench_service: writer connect: %s\n", err.c_str());
    std::exit(1);
  }
  snap::WallTimer timer;
  for (const std::string& body : bodies) {
    const HttpResult res = writer.request("POST", "/ingest", body);
    if (!res.ok()) {
      std::fprintf(stderr, "bench_service: ingest failed: %s %s\n",
                   res.error.c_str(), res.body.c_str());
      std::exit(1);
    }
  }
  ReplayResult out;
  out.ingest_s = timer.elapsed_s();
  done.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  out.qps = out.ingest_s > 0
                ? static_cast<double>(reads.load()) / out.ingest_s
                : 0.0;

  snap::json::Value stats;
  const HttpResult res = writer.request("GET", "/stats");
  if (res.ok() && snap::json::parse(res.body, &stats, nullptr))
    out.edges = stats.get("num_edges").as_int64();
  // Hang up first: stop() joins the worker serving this keep-alive
  // connection, which would otherwise sit in recv() until its idle timeout.
  writer.close();
  server.stop();
  return out;
}

double eps(std::size_t edges, double seconds) {
  return seconds > 0 ? static_cast<double>(edges) / seconds : 0.0;
}

/// The body `snap-cli serve --in` renders for `g`: every logical edge once,
/// in CSR order, with no time.
std::string preload_body(const CSRGraph& g) {
  std::string body = "{\"updates\":[";
  const char* sep = "";
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (const vid_t u : g.neighbors(v)) {
      if (!g.directed() && u > v) continue;
      body += sep;
      body += "{\"op\":\"insert\",\"u\":" + std::to_string(v) +
              ",\"v\":" + std::to_string(u) + "}";
      sep = ",";
    }
  }
  return body + "]}";
}

/// Decode `body` kReps times; exits on a rejected body.
std::vector<double> time_decode(const std::string& body) {
  snap::stream::UpdateBatch batch;
  std::string err;
  return time_reps([&batch] { batch = snap::stream::UpdateBatch(); },
                   [&] {
                     if (!snap::server::decode_ingest(body, &batch, &err)) {
                       std::fprintf(stderr, "bench_service: decode: %s\n",
                                    err.c_str());
                       std::exit(1);
                     }
                   });
}

/// The preload phases (see the header comment); returns the record count.
std::size_t run_preload(const std::string& dataset, const CSRGraph& base,
                        JsonReport* report) {
  snap::server::HttpRequest request;
  request.method = "POST";
  request.path = "/ingest";
  const std::string body = preload_body(base);
  std::size_t records = 0;
  const auto report_reps = [&](const char* phase, int threads,
                               const std::vector<double>& s) {
    std::printf("%-22s %9.3fs %14.0f edges/s  (t=%d, %.3f-%.3fs)\n", phase,
                median(s), eps(records, median(s)), threads,
                *std::min_element(s.begin(), s.end()),
                *std::max_element(s.begin(), s.end()));
    report->record_reps(dataset, {{"body_bytes", std::to_string(body.size())}},
                        threads, phase, s, static_cast<double>(records));
  };
  const auto preload = [&](const char* phase, int threads) {
    snap::parallel::ThreadScope scope(threads);
    std::unique_ptr<GraphService> service;
    report_reps(
        phase, threads,
        time_reps(
            [&] {
              service.reset();
              service = std::make_unique<GraphService>(base.num_vertices());
              request.body = body;
            },
            [&] {
              const snap::server::HttpResponse resp = service->handle(request);
              snap::json::Value doc;
              if (resp.status != 200 ||
                  !snap::json::parse(resp.body, &doc, nullptr)) {
                std::fprintf(stderr, "bench_service: preload: %s\n",
                             resp.body.c_str());
                std::exit(1);
              }
              records = static_cast<std::size_t>(
                  doc.get("raw_records").as_int64());
            }));
  };
  const auto decode = [&](const char* phase, int threads) {
    snap::parallel::ThreadScope scope(threads);
    report_reps(phase, threads, time_decode(body));
  };
  snap::stream::UpdateBatch batch;
  std::string err;
  if (!snap::server::decode_ingest(body, &batch, &err)) {
    std::fprintf(stderr, "bench_service: decode: %s\n", err.c_str());
    std::exit(1);
  }
  const auto canonicalize = [&](const char* phase, int threads) {
    snap::parallel::ThreadScope scope(threads);
    snap::stream::CanonicalBatch cb;
    report_reps(phase, threads,
                time_reps([&] { cb = snap::stream::CanonicalBatch(); },
                          [&] { cb = batch.canonicalize(/*directed=*/false); }));
  };
  const int nt = snap::parallel::num_threads();
  preload("preload:serial", 1);
  preload("preload:parallel", nt);
  decode("decode:serial", 1);
  decode("decode:parallel", nt);
  canonicalize("canonicalize:serial", 1);
  canonicalize("canonicalize:parallel", nt);
  report->record_count(dataset, {}, 1, "preload_records",
                       static_cast<std::int64_t>(records));
  return records;
}

/// decode_ingest on flat bodies of 64 KiB .. 16 MiB, as e2ebench renders
/// its batches, at 1 and 4 threads.
void run_decode_sweep(JsonReport* report) {
  std::printf("decode sweep (median of %d, ms):  %10s %9s %9s\n", kReps,
              "bytes", "1 thread", "4 threads");
  std::string body = "{\"updates\":[";
  std::size_t i = 0;
  for (std::size_t target = std::size_t{1} << 16;
       target <= std::size_t{1} << 24; target *= 2) {
    body.resize(body.size() - (i == 0 ? 0 : 2));  // reopen the array
    for (; body.size() + 2 < target; ++i) {
      if (i != 0) body += ',';
      body += "{\"op\":\"insert\",\"u\":" + std::to_string(i * 7919 % 65536) +
              ",\"v\":" + std::to_string(i * 104729 % 65536) +
              ",\"time\":" + std::to_string(i) + "}";
    }
    body += "]}";
    double ms[2] = {0, 0};
    for (const int t : {1, 4}) {
      snap::parallel::ThreadScope scope(t);
      const std::vector<double> s = time_decode(body);
      ms[t == 1 ? 0 : 1] = 1e3 * median(s);
      report->record_reps("flat", {{"body_bytes", std::to_string(target)}},
                          t,
                          "decode_sweep:" + std::to_string(target >> 10) +
                              "KiB:t" + std::to_string(t),
                          s);
    }
    std::printf("%33s %10zu %9.2f %9.2f\n", "", body.size(), ms[0], ms[1]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = snapbench::has_flag(argc, argv, "--smoke");
  JsonReport report("bench_service",
                    snapbench::flag_value(argc, argv, "--json"));
  snapbench::print_header(
      "Analytics service: HTTP ingest replay + concurrent query load");

  std::string corpus_name;
  CSRGraph corpus_graph;
  const bool use_corpus =
      snapbench::corpus_from_flags(argc, argv, &corpus_name, &corpus_graph);
  const vid_t n_default = smoke ? (vid_t{1} << 12) : (vid_t{1} << 16);
  const CSRGraph base =
      use_corpus ? std::move(corpus_graph)
                 : snapbench::rmat_fold(n_default, 8 * n_default, false, 99);
  const std::string dataset = use_corpus ? corpus_name : "rmat_fold";
  const vid_t n = base.num_vertices();

  const std::vector<Edge> edges = edge_stream(base, 4242);
  const std::size_t batch_size = smoke ? 512 : 2000;
  const std::vector<std::string> bodies = ingest_bodies(edges, batch_size);
  std::printf("dataset=%s n=%lld stream=%zu edges in %zu batches of %zu\n",
              dataset.c_str(), static_cast<long long>(n), edges.size(),
              bodies.size(), batch_size);

  snap::eid_t direct_edges = 0;
  const std::vector<double> direct =
      run_direct(n, edges, batch_size, &direct_edges);
  const double direct_s = median(direct);
  std::printf("%-22s %9.3fs %14.0f edges/s  (%.3f-%.3fs)\n",
              "direct apply (eager)", direct_s, eps(edges.size(), direct_s),
              *std::min_element(direct.begin(), direct.end()),
              *std::max_element(direct.begin(), direct.end()));
  report.record_reps(dataset, {{"batch_size", std::to_string(batch_size)}},
                     1, "direct_apply", direct,
                     static_cast<double>(edges.size()));

  const ReplayResult r0 = run_replay(n, bodies, /*readers=*/0);
  std::printf("%-22s %9.3fs %14.0f edges/s\n", "replay, 0 readers",
              r0.ingest_s, eps(edges.size(), r0.ingest_s));
  report.record(dataset, {{"batch_size", std::to_string(batch_size)}}, 1,
                "replay_0r", r0.ingest_s, eps(edges.size(), r0.ingest_s));

  const ReplayResult r4 = run_replay(n, bodies, /*readers=*/4);
  std::printf("%-22s %9.3fs %14.0f edges/s  (readers: %.0f qps)\n",
              "replay, 4 readers", r4.ingest_s,
              eps(edges.size(), r4.ingest_s), r4.qps);
  report.record(dataset, {{"batch_size", std::to_string(batch_size)}}, 5,
                "replay_4r", r4.ingest_s, eps(edges.size(), r4.ingest_s));
  report.record(dataset, {{"batch_size", std::to_string(batch_size)}}, 4,
                "qps_4r", r4.ingest_s, r4.qps);

  // Correctness: both replays must land on exactly the reference graph.
  if (r0.edges != direct_edges || r4.edges != direct_edges) {
    std::fprintf(stderr,
                 "bench_service: edge-count mismatch (direct %lld, "
                 "replay_0r %lld, replay_4r %lld)\n",
                 static_cast<long long>(direct_edges),
                 static_cast<long long>(r0.edges),
                 static_cast<long long>(r4.edges));
    return 1;
  }

  const double ratio =
      r0.ingest_s > 0 ? r4.ingest_s / r0.ingest_s : 0.0;
  std::printf("ingest slowdown with 4 readers: %.2fx (target <= 2x)\n",
              ratio);

  // One body holding every edge: the preload's records must be the
  // dataset's edges, one each.
  const std::size_t preloaded = run_preload(dataset, base, &report);
  if (preloaded != static_cast<std::size_t>(base.num_edges())) {
    std::fprintf(stderr, "bench_service: preloaded %zu records of %lld edges\n",
                 preloaded, static_cast<long long>(base.num_edges()));
    return 1;
  }
  run_decode_sweep(&report);
  report.write();
  return 0;
}
