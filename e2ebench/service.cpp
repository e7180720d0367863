#include "service.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>

#include "snap/gen/generators.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/util/json.hpp"
#include "snap/util/rng.hpp"
#include "trace.hpp"

namespace e2e {

using snap::CSRGraph;
using snap::vid_t;
using snap::server::HttpClient;
using snap::server::HttpResult;
using snap::stream::UpdateKind;
namespace json = snap::json;

WriterSpec writer_spec(Shape shape) {
  if (shape == Shape::kIngest)
    return {.open_loop = false, .batches_per_s = 0.0, .inserts_per_batch = 500,
            .lag = 10};
  return {.open_loop = true, .batches_per_s = 2.0, .inserts_per_batch = 50,
          .lag = 10};
}

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr int kReaders = 3;

std::uint64_t edge_key(vid_t u, vid_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
}

struct MixEntry {
  Route route;
  int weight;
};
// Point reads go with the ingest traffic, analytic reads with the query
// traffic.  /community is left out of the analytic mix: one call costs ~30x
// the mix mean, so query_p99_ms would measure nothing else; louvain_s
// covers its kernel.
constexpr MixEntry kPointMix[] = {{kDegree, 60}, {kNeighbors, 30}, {kStats, 10}};
constexpr MixEntry kAnalyticMix[] = {
    {kDegree, 30},       {kNeighbors, 20}, {kCc, 25},
    {kPageRankTopk, 15}, {kBcTopk, 8},     {kClustering, 2}};

Route pick(std::span<const MixEntry> mix, snap::SplitMix64& rng) {
  int total = 0;
  for (const MixEntry& m : mix) total += m.weight;
  auto x = static_cast<int>(rng.next_bounded(static_cast<std::uint64_t>(total)));
  for (const MixEntry& m : mix) {
    if (x < m.weight) return m.route;
    x -= m.weight;
  }
  return mix.back().route;
}

std::string target_for(Route r, vid_t v) {
  switch (r) {
    case kDegree:
      return "/degree/" + std::to_string(v);
    case kNeighbors:
      return "/neighbors/" + std::to_string(v);
    case kCc:
      return "/cc/" + std::to_string(v);
    case kClustering:
      return "/clustering";
    case kPageRankTopk:
      return "/pagerank-topk?k=10&iters=10";
    case kBcTopk:
      return "/bc-topk?k=10&samples=2";
    default:
      return "/stats";
  }
}

/// Tag a request with its client span's id; a no-op while tracing is off.
void add_rid(std::string& target, std::uint64_t rid) {
  if (rid == 0) return;
  target += target.find('?') == std::string::npos ? "?rid=" : "&rid=";
  target += std::to_string(rid);
}

void append_int(std::string& s, std::int64_t x) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  s.append(buf, r.ptr);
}

/// Runs a load thread's body, turning an escaping exception into a failed
/// operation instead of std::terminate.
template <typename F>
void guarded(RequestLog& log, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ++log.attempted;
    ++log.failed;
    std::fprintf(stderr, "load thread failed: %s\n", e.what());
  }
}

void writer_loop(int port, const WriterSpec& w, UpdateStream& stream,
                 Clock::time_point start, Clock::time_point end,
                 std::int64_t max_batches, std::vector<Batch>& sent,
                 WindowResult& out) {
  HttpClient c;
  std::string err;
  if (!c.connect(kHost, port, &err)) {
    ++out.requests.attempted;
    ++out.requests.failed;
    return;
  }
  const std::chrono::duration<double> period(
      w.open_loop ? 1.0 / w.batches_per_s : 0.0);
  std::int64_t accepted = 0;
  for (std::int64_t i = 0; max_batches == 0 || accepted < max_batches; ++i) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
    if (w.open_loop ? due >= end : Clock::now() >= end) break;
    Batch batch;
    std::string body;
    {
      ScopedSpan s("writer.render", Layer::kBench);
      batch = stream.next();
      body = render_updates(batch);
    }
    if (w.open_loop) std::this_thread::sleep_until(due);
    const auto sent_at = Clock::now();
    if (w.open_loop)
      out.lateness_ms.push_back(ms_between(due, sent_at));
    else
      due = sent_at;

    HttpResult res;
    {
      ScopedSpan s("writer.ingest", Layer::kHttp);
      std::string target = "/ingest";
      add_rid(target, s.id());
      res = c.request("POST", target, body);
    }
    const double post_ms = ms_between(sent_at, Clock::now());
    out.requests.record(kIngest, post_ms, res);
    if (res.status == 0) return;
    if (!res.ok()) continue;
    json::Value doc;
    const std::int64_t epoch =
        json::parse(res.body, &doc) ? doc.get("epoch").as_int64(-1) : -1;
    if (epoch < 0) {
      ++out.requests.failed;
      continue;
    }
    out.records += batch.size();
    out.ingest_busy_s += post_ms * 1e-3;
    sent.push_back(std::move(batch));
    ++accepted;

    // The writer polls on its own connection until /stats shows the epoch.
    for (;;) {
      const auto t0 = Clock::now();
      HttpResult st;
      {
        ScopedSpan s("writer.poll", Layer::kHttp);
        std::string target = "/stats";
        add_rid(target, s.id());
        st = c.request("GET", target);
      }
      out.requests.record(kStats, ms_between(t0, Clock::now()), st);
      json::Value sv;
      if (!st.ok() || !json::parse(st.body, &sv)) {
        if (st.status == 0) return;
        break;
      }
      out.live_snapshots_max = std::max(
          out.live_snapshots_max, sv.get("live_snapshots").as_int64(0));
      if (sv.get("epoch").as_int64(-1) >= epoch) {
        out.visible_ms.push_back(ms_between(due, Clock::now()));
        break;
      }
    }
  }
}

void reader_loop(int port, std::span<const MixEntry> mix, vid_t n,
                 std::uint64_t seed, Clock::time_point end,
                 const std::atomic<bool>& stop, RequestLog& log,
                 std::vector<double>& read_ms) {
  HttpClient c;
  std::string err;
  if (!c.connect(kHost, port, &err)) {
    ++log.attempted;
    ++log.failed;
    return;
  }
  snap::SplitMix64 rng(seed);
  while (!stop.load(std::memory_order_relaxed) && Clock::now() < end) {
    const Route r = pick(mix, rng);
    std::string target = target_for(
        r, static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n))));
    const auto t0 = Clock::now();
    HttpResult res;
    {
      ScopedSpan s(kRouteNames[r], Layer::kHttp);
      add_rid(target, s.id());
      res = c.request("GET", target);
    }
    const double ms = ms_between(t0, Clock::now());
    log.record(r, ms, res);
    read_ms.push_back(ms);
    if (res.status == 0) return;
  }
}

/// Joins its threads on every exit path.
struct Joiner {
  std::vector<std::thread> threads;
  ~Joiner() {
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }
};

// The expected bodies below rebuild, field for field, what the handlers in
// snap/server/handlers.cpp emit, from kernels run on the reference graph.

std::string expected_degree(const CSRGraph& g, std::int64_t epoch, vid_t v,
                            bool with_neighbors) {
  json::Value out = json::Value::object();
  out.set("epoch", epoch);
  out.set("vertex", v);
  out.set("degree", g.degree(v));
  if (with_neighbors) {
    json::Value nbrs = json::Value::array();
    for (const vid_t u : g.neighbors(v)) nbrs.push_back(u);
    out.set("neighbors", nbrs);
  }
  return out.dump();
}

std::string expected_cc(const snap::Components& comps,
                        const std::vector<vid_t>& sizes, std::int64_t epoch,
                        vid_t v) {
  const vid_t label = comps.label[static_cast<std::size_t>(v)];
  json::Value out = json::Value::object();
  out.set("epoch", epoch);
  out.set("vertex", v);
  out.set("component", label);
  out.set("component_size", sizes[static_cast<std::size_t>(label)]);
  out.set("num_components", comps.count);
  return out.dump();
}

std::string expected_pagerank_topk(const CSRGraph& g, std::int64_t epoch,
                                   int k, int iters) {
  snap::PageRankParams params;
  params.max_iters = iters;
  params.tol = 0.0;
  const snap::PageRankResult r = snap::pagerank(g, params);
  const vid_t n = g.num_vertices();
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  const auto kk = static_cast<std::size_t>(std::min<vid_t>(k, n));
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(kk),
                    order.end(), [&r](vid_t a, vid_t b) {
                      const double ra = r.rank[static_cast<std::size_t>(a)];
                      const double rb = r.rank[static_cast<std::size_t>(b)];
                      if (ra != rb) return ra > rb;
                      return a < b;
                    });
  json::Value top = json::Value::array();
  for (std::size_t i = 0; i < kk; ++i) {
    json::Value row = json::Value::object();
    row.set("vertex", order[i]);
    row.set("rank", r.rank[static_cast<std::size_t>(order[i])]);
    top.push_back(row);
  }
  json::Value out = json::Value::object();
  out.set("epoch", epoch);
  out.set("k", static_cast<std::int64_t>(kk));
  out.set("iters", static_cast<std::int64_t>(iters));
  out.set("top", top);
  return out.dump();
}

const char* route_span_name(const std::string& path) {
  for (const Route r : {kIngest, kStats, kClustering, kPageRankTopk, kBcTopk}) {
    if (path == std::string("/") + kRouteNames[r]) return kRouteNames[r];
  }
  for (const Route r : {kDegree, kNeighbors, kCc}) {
    if (path.rfind(std::string("/") + kRouteNames[r] + "/", 0) == 0)
      return kRouteNames[r];
  }
  return "other";
}

}  // namespace

UpdateStream::UpdateStream(const CSRGraph& base, std::uint64_t seed,
                           const WriterSpec& spec)
    : base_(base),
      spec_(spec),
      next_seed_(seed * 0x9E3779B97F4A7C15ULL + 0x57ea) {
  while ((vid_t{1} << scale_) < base.num_vertices()) ++scale_;
}

std::pair<vid_t, vid_t> UpdateStream::draw() {
  snap::gen::RmatParams p;
  p.scale = scale_;
  p.m = 1;  // one edge per call, which runs inline on the writer's thread
  const vid_t n = base_.num_vertices();
  for (;;) {
    p.seed = next_seed_++;
    const snap::Edge e = snap::gen::rmat_edges(p).front();
    if (e.u == e.v || e.u >= n || e.v >= n || base_.has_edge(e.u, e.v) ||
        live_.count(edge_key(e.u, e.v)) != 0)
      continue;
    return {e.u, e.v};
  }
}

Batch UpdateStream::next() {
  Batch out;
  if (static_cast<int>(history_.size()) == spec_.lag) {
    for (const auto& [u, v] : history_.front()) {
      out.push_back({u, v, time_++, UpdateKind::kDelete});
      live_.erase(edge_key(u, v));
    }
    history_.pop_front();
  }
  auto& fresh = history_.emplace_back();
  while (static_cast<int>(fresh.size()) < spec_.inserts_per_batch) {
    const auto [u, v] = draw();
    live_.insert(edge_key(u, v));
    fresh.emplace_back(u, v);
    out.push_back({u, v, time_++, UpdateKind::kInsert});
  }
  return out;
}

Batch preload_records(const CSRGraph& g) {
  Batch out;
  out.reserve(static_cast<std::size_t>(g.num_edges()));
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    for (const vid_t u : g.neighbors(v))
      if (u <= v) out.push_back({v, u, 0, UpdateKind::kInsert});
  return out;
}

std::string render_updates(const Batch& records) {
  std::string s;
  s.reserve(records.size() * 56 + 16);
  s += "{\"updates\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (i != 0) s += ',';
    s += r.kind == UpdateKind::kInsert ? "{\"op\":\"insert\",\"u\":"
                                       : "{\"op\":\"delete\",\"u\":";
    append_int(s, r.u);
    s += ",\"v\":";
    append_int(s, r.v);
    s += ",\"time\":";
    append_int(s, static_cast<std::int64_t>(r.time));
    s += '}';
  }
  s += "]}";
  return s;
}

snap::stream::UpdateBatch to_update_batch(const Batch& records) {
  snap::stream::UpdateBatch b;
  for (const auto& r : records) {
    if (r.kind == UpdateKind::kInsert)
      b.insert(r.u, r.v, r.time);
    else
      b.erase(r.u, r.v, r.time);
  }
  return b;
}

void RequestLog::record(Route r, double ms, const HttpResult& res) {
  ++attempted;
  route_ms[r].push_back(ms);
  if (res.status != 0) ++responses;
  if (!res.ok()) ++failed;
}

void RequestLog::merge(const RequestLog& other) {
  for (int r = 0; r < kNumRoutes; ++r)
    route_ms[r].insert(route_ms[r].end(), other.route_ms[r].begin(),
                       other.route_ms[r].end());
  attempted += other.attempted;
  failed += other.failed;
  responses += other.responses;
}

void WindowResult::merge(const WindowResult& other) {
  window_s += other.window_s;
  records += other.records;
  ingest_busy_s += other.ingest_busy_s;
  visible_ms.insert(visible_ms.end(), other.visible_ms.begin(),
                    other.visible_ms.end());
  lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                     other.lateness_ms.end());
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  requests.merge(other.requests);
  live_snapshots_max = std::max(live_snapshots_max, other.live_snapshots_max);
}

WindowResult run_window(int port, Shape shape, double seconds,
                        std::int64_t max_batches, vid_t num_vertices,
                        std::uint64_t seed, UpdateStream& stream,
                        std::vector<Batch>& sent) {
  const WriterSpec w = writer_spec(shape);
  const std::span<const MixEntry> mix =
      shape == Shape::kQuery ? std::span<const MixEntry>(kAnalyticMix)
                             : std::span<const MixEntry>(kPointMix);
  WindowResult out;
  std::vector<RequestLog> reader_logs(kReaders);
  std::vector<std::vector<double>> reader_ms(kReaders);
  std::atomic<bool> writer_done{false};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  {
    Joiner j;
    j.threads.emplace_back([&] {
      guarded(out.requests, [&] {
        writer_loop(port, w, stream, start, end, max_batches, sent, out);
      });
      if (max_batches != 0) writer_done.store(true, std::memory_order_relaxed);
    });
    for (int r = 0; r < kReaders; ++r) {
      j.threads.emplace_back([&, r] {
        const std::uint64_t rs =
            seed * 0x9E3779B97F4A7C15ULL + 0x5eed + static_cast<std::uint64_t>(r);
        guarded(reader_logs[static_cast<std::size_t>(r)], [&] {
          reader_loop(port, mix, num_vertices, rs, end, writer_done,
                      reader_logs[static_cast<std::size_t>(r)],
                      reader_ms[static_cast<std::size_t>(r)]);
        });
      });
    }
  }
  out.window_s = seconds_between(start, Clock::now());
  for (int r = 0; r < kReaders; ++r) {
    out.requests.merge(reader_logs[static_cast<std::size_t>(r)]);
    const auto& ms = reader_ms[static_cast<std::size_t>(r)];
    out.read_ms.insert(out.read_ms.end(), ms.begin(), ms.end());
  }
  return out;
}

void check_service(int port, const CSRGraph& base,
                   const std::vector<Batch>& sent, std::uint64_t seed,
                   CheckLog& log, RequestLog& probes) {
  snap::stream::StreamingGraph ref(base.num_vertices(), /*directed=*/false);
  ref.apply(to_update_batch(preload_records(base)));
  for (const Batch& b : sent) ref.apply(to_update_batch(b));
  const snap::stream::SnapshotHandle pinned = ref.pin();
  const CSRGraph& g = pinned->graph();
  const auto epoch = static_cast<std::int64_t>(pinned->epoch());

  HttpClient c;
  std::string err;
  if (!c.connect(kHost, port, &err)) {
    log.expect(false, "probe connection: " + err);
    return;
  }
  auto get = [&](Route r, const std::string& target) {
    const auto t0 = Clock::now();
    HttpResult res = c.request("GET", target);
    probes.record(r, ms_between(t0, Clock::now()), res);
    return res;
  };

  const HttpResult st = get(kStats, "/stats");
  json::Value sv;
  const bool parsed = st.ok() && json::parse(st.body, &sv);
  log.expect(parsed && sv.get("num_edges").as_int64(-1) == g.num_edges(),
             "/stats num_edges differs from the direct-apply reference (" +
                 std::to_string(g.num_edges()) + ")");
  log.expect(parsed && sv.get("epoch").as_int64(-1) == epoch,
             "/stats epoch differs from the direct-apply reference");

  const snap::Components comps = snap::connected_components(g);
  const std::vector<vid_t> sizes = comps.sizes();
  snap::SplitMix64 rng(seed ^ 0xc0ffeeULL);
  for (int i = 0; i < 4; ++i) {
    const auto v = static_cast<vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(g.num_vertices())));
    const std::string vs = std::to_string(v);
    log.expect(get(kCc, "/cc/" + vs).body == expected_cc(comps, sizes, epoch, v),
               "/cc/" + vs + " differs from connected_components");
    log.expect(get(kDegree, "/degree/" + vs).body ==
                   expected_degree(g, epoch, v, false),
               "/degree/" + vs + " differs from the reference graph");
    log.expect(get(kNeighbors, "/neighbors/" + vs).body ==
                   expected_degree(g, epoch, v, true),
               "/neighbors/" + vs + " differs from the reference graph");
  }
  log.expect(get(kPageRankTopk, "/pagerank-topk?k=10&iters=10").body ==
                 expected_pagerank_topk(g, epoch, 10, 10),
             "/pagerank-topk differs from pagerank()");
  // Both are floating-point reductions whose last bits follow the thread
  // schedule, so these two are checked for an answer, not byte-compared.
  log.expect(get(kClustering, "/clustering").ok(), "/clustering failed");
  log.expect(get(kBcTopk, "/bc-topk?k=10&samples=2").ok(), "/bc-topk failed");
}

snap::server::HttpResponse TracingHandler::handle(
    const snap::server::HttpRequest& request) {
  snap::server::HttpRequest fwd = request;
  fwd.query.clear();
  fwd.query_string.clear();
  std::uint64_t rid = 0;
  for (const auto& [k, v] : request.query) {
    if (k == "rid") {
      std::from_chars(v.data(), v.data() + v.size(), rid);
      continue;
    }
    if (!fwd.query_string.empty()) fwd.query_string += '&';
    fwd.query_string += k + "=" + v;
    fwd.query.emplace_back(k, v);
  }
  ScopedSpan span(route_span_name(request.path), Layer::kServer, rid);
  return inner_->handle(fwd);
}

StreamMetrics replay_stream(const CSRGraph& base, Shape shape,
                            std::uint64_t seed) {
  constexpr int kTimed = 10;
  const WriterSpec w = writer_spec(shape);
  UpdateStream stream(base, seed, w);
  auto lazy = snap::stream::StreamingGraph::from_csr(base);
  auto eager = snap::stream::StreamingGraph::from_csr(base);
  for (int i = 0; i < w.lag; ++i) {
    const auto ub = to_update_batch(stream.next());
    lazy.apply(ub);
    eager.apply(ub);
  }
  eager.set_eager_snapshots(true);

  StreamMetrics m;
  snap::stream::SnapshotHandle last;
  auto timed_ms = [](const char* name, Layer layer, auto&& fn) {
    ScopedSpan s(name, layer);
    const auto t0 = Clock::now();
    fn();
    return ms_between(t0, Clock::now());
  };
  for (int i = 0; i < kTimed; ++i) {
    const Batch b = stream.next();
    const std::string body = render_updates(b);
    m.json_parse_ms += timed_ms("json_parse", Layer::kUtil, [&] {
      json::Value doc;
      (void)json::parse(body, &doc);
    });
    const auto ub = to_update_batch(b);
    m.canonicalize_ms += timed_ms("canonicalize", Layer::kStream,
                                  [&] { (void)ub.canonicalize(false); });
    snap::stream::ApplyStats st;
    m.apply_ms += timed_ms("apply", Layer::kStream, [&] { st = lazy.apply(ub); });
    m.canonical_arcs += static_cast<double>(st.canonical_arcs);
    m.applied_inserts += static_cast<double>(st.applied_inserts);
    m.applied_deletes += static_cast<double>(st.applied_deletes);
    m.publish_ms += timed_ms("pin", Layer::kStream, [&] { last = lazy.pin(); });
    m.apply_eager_ms +=
        timed_ms("apply_eager", Layer::kStream, [&] { (void)eager.apply(ub); });
  }
  for (double* per_batch : {&m.json_parse_ms, &m.canonicalize_ms, &m.apply_ms,
                            &m.publish_ms, &m.apply_eager_ms})
    *per_batch /= kTimed;
  m.publish_share = m.apply_eager_ms > 0 ? m.publish_ms / m.apply_eager_ms : 0;
  const CSRGraph& g = last->graph();
  m.snapshot_mb =
      static_cast<double>(g.row_offsets().size_bytes() +
                          g.adjacency().size_bytes() +
                          g.arc_weights().size_bytes() +
                          g.arc_edge_id_array().size_bytes() +
                          g.edges().size() * sizeof(snap::Edge)) /
      1e6;
  return m;
}

}  // namespace e2e
