// Wire-protocol tests for the graph analytics service: every endpoint is
// exercised against a real loopback HttpServer, and success bodies are
// compared BYTE-FOR-BYTE with JSON assembled from the offline kernels run
// on an identical graph — the service must answer exactly what the library
// answers on the pinned snapshot.  Error paths (bad vertex id, malformed
// body, unknown route, wrong method) must come back as 4xx with a JSON
// error object.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "snap/centrality/betweenness.hpp"
#include "snap/community/louvain.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/server/http.hpp"
#include "snap/server/service.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/json.hpp"

namespace {

using snap::CSRGraph;
using snap::vid_t;
using snap::json::Value;
using snap::server::GraphService;
using snap::server::HttpClient;
using snap::server::HttpResult;
using snap::server::HttpServer;
using snap::server::http_request;

// The known graph: a triangle 0-1-2, a tail 2-3, a detached pair 4-5, and
// isolated vertices 6, 7.  Five edges, four components.
constexpr vid_t kN = 8;

snap::stream::UpdateBatch seed_batch() {
  snap::stream::UpdateBatch b;
  b.insert(0, 1, 1);
  b.insert(1, 2, 2);
  b.insert(0, 2, 3);
  b.insert(2, 3, 4);
  b.insert(4, 5, 5);
  return b;
}

std::string seed_body() {
  Value updates = Value::array();
  const snap::stream::UpdateBatch batch = seed_batch();
  for (const auto& rec : batch.records()) {
    Value u = Value::object();
    u.set("op", "insert");
    u.set("u", rec.u);
    u.set("v", rec.v);
    u.set("time", static_cast<std::int64_t>(rec.time));
    updates.push_back(u);
  }
  Value doc = Value::object();
  doc.set("updates", updates);
  return doc.dump();
}

/// The same graph the service holds after one /ingest of seed_body(),
/// built directly through the library.
CSRGraph offline_graph() {
  snap::stream::StreamingGraph sg(kN, /*directed=*/false);
  sg.apply(seed_batch());
  const snap::stream::SnapshotHandle pinned = sg.pin();
  return pinned->graph();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<GraphService>(kN, /*directed=*/false);
    server_ = std::make_unique<HttpServer>(service_.get(), /*threads=*/2);
    std::string err;
    ASSERT_TRUE(server_->start("127.0.0.1", 0, &err)) << err;
    port_ = server_->port();
  }

  void TearDown() override { server_->stop(); }

  /// One /ingest of the known graph; asserts the exact apply stats.
  void seed() {
    const HttpResult r =
        http_request("127.0.0.1", port_, "POST", "/ingest", seed_body());
    ASSERT_EQ(r.status, 200) << r.error << r.body;
    Value expected = Value::object();
    expected.set("epoch", 1);
    expected.set("raw_records", 5);
    expected.set("canonical_arcs", 10);
    expected.set("applied_inserts", 5);
    expected.set("applied_deletes", 0);
    EXPECT_EQ(r.body, expected.dump());
  }

  HttpResult get(const std::string& target) {
    return http_request("127.0.0.1", port_, "GET", target);
  }

  std::unique_ptr<GraphService> service_;
  std::unique_ptr<HttpServer> server_;
  int port_ = 0;
};

TEST_F(ServiceTest, StatsMatchesOfflineGraph) {
  seed();
  const CSRGraph g = offline_graph();
  Value expected = Value::object();
  expected.set("epoch", 1);
  expected.set("num_vertices", g.num_vertices());
  expected.set("num_edges", g.num_edges());
  expected.set("num_arcs", g.num_arcs());
  expected.set("directed", false);
  // Exactly one epoch image alive: the published snapshot (the handler's
  // own pin references the same object, not a new one).
  expected.set("live_snapshots", 1);
  const HttpResult r = get("/stats");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, expected.dump());
}

TEST_F(ServiceTest, SnapshotGaugeReturnsToOneAfterQueries) {
  seed();
  // Work the service: ingests retire epochs while queries hold pins on
  // them, then everything unpins as each handler returns.
  for (int round = 0; round < 3; ++round) {
    Value updates = Value::array();
    Value u = Value::object();
    u.set("op", "insert");
    u.set("u", round);
    u.set("v", round + 4);
    updates.push_back(u);
    Value doc = Value::object();
    doc.set("updates", updates);
    ASSERT_EQ(
        http_request("127.0.0.1", port_, "POST", "/ingest", doc.dump()).status,
        200);
    ASSERT_EQ(get("/neighbors/0").status, 200);
    ASSERT_EQ(get("/cc/0").status, 200);
    ASSERT_EQ(get("/clustering").status, 200);
  }
  // Every query handler has returned (we read its full response), so all
  // pins are dropped: only the published snapshot may remain, and /stats
  // must report the same gauge it exposes.
  EXPECT_EQ(service_->streaming().live_snapshots(), 1);
  Value stats;
  ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
  EXPECT_EQ(stats.get("live_snapshots").as_int64(), 1);
  EXPECT_EQ(stats.get("epoch").as_int64(), 4);
}

TEST_F(ServiceTest, DegreeAndNeighborsMatchOfflineGraph) {
  seed();
  const CSRGraph g = offline_graph();
  for (vid_t v = 0; v < kN; ++v) {
    Value expected = Value::object();
    expected.set("epoch", 1);
    expected.set("vertex", v);
    expected.set("degree", g.degree(v));
    const HttpResult rd = get("/degree/" + std::to_string(v));
    ASSERT_EQ(rd.status, 200) << rd.error;
    EXPECT_EQ(rd.body, expected.dump());

    Value nbrs = Value::array();
    for (const vid_t u : g.neighbors(v)) nbrs.push_back(u);
    expected.set("neighbors", nbrs);
    const HttpResult rn = get("/neighbors/" + std::to_string(v));
    ASSERT_EQ(rn.status, 200) << rn.error;
    EXPECT_EQ(rn.body, expected.dump());
  }
}

TEST_F(ServiceTest, ConnectedComponentMatchesOfflineKernel) {
  seed();
  const CSRGraph g = offline_graph();
  const snap::Components comps = snap::connected_components(g);
  const std::vector<vid_t> sizes = comps.sizes();
  for (const vid_t v : {vid_t{0}, vid_t{3}, vid_t{4}, vid_t{7}}) {
    const vid_t label = comps.label[static_cast<std::size_t>(v)];
    Value expected = Value::object();
    expected.set("epoch", 1);
    expected.set("vertex", v);
    expected.set("component", label);
    expected.set("component_size", sizes[static_cast<std::size_t>(label)]);
    expected.set("num_components", comps.count);
    const HttpResult r = get("/cc/" + std::to_string(v));
    ASSERT_EQ(r.status, 200) << r.error;
    EXPECT_EQ(r.body, expected.dump());
  }
}

TEST_F(ServiceTest, ClusteringMatchesOfflineKernel) {
  seed();
  const CSRGraph g = offline_graph();
  Value expected = Value::object();
  expected.set("epoch", 1);
  expected.set("average", snap::average_clustering_coefficient(g));
  expected.set("global", snap::global_clustering_coefficient(g));
  const HttpResult r = get("/clustering");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, expected.dump());
}

TEST_F(ServiceTest, CommunityMatchesOfflineKernel) {
  seed();
  const CSRGraph g = offline_graph();
  const snap::CommunityResult offline = snap::louvain(g).community;
  Value expected = Value::object();
  expected.set("epoch", 1);
  expected.set("algo", "louvain");
  expected.set("num_communities", offline.clustering.num_clusters);
  expected.set("modularity", offline.modularity);
  const HttpResult r = get("/community?algo=louvain");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, expected.dump());

  // plp runs too and reports the same epoch/shape.
  const HttpResult rp = get("/community?algo=plp");
  ASSERT_EQ(rp.status, 200) << rp.error;
  Value doc;
  ASSERT_TRUE(snap::json::parse(rp.body, &doc, nullptr));
  EXPECT_EQ(doc.get("algo").as_string(), "plp");
  EXPECT_EQ(doc.get("epoch").as_int64(), 1);
  EXPECT_GE(doc.get("num_communities").as_int64(), 4);
}

TEST_F(ServiceTest, BcTopkMatchesOfflineKernel) {
  seed();
  const CSRGraph g = offline_graph();
  // samples=16 >= n, so the service uses every vertex as a source — the
  // exact kernel, reproducible here without touching the sampler.
  std::vector<vid_t> sources(kN);
  for (vid_t v = 0; v < kN; ++v) sources[static_cast<std::size_t>(v)] = v;
  const std::vector<double> scores =
      snap::approx_vertex_betweenness(g, sources);
  std::vector<vid_t> order(kN);
  for (vid_t v = 0; v < kN; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&scores](vid_t a, vid_t b) {
    const double sa = scores[static_cast<std::size_t>(a)];
    const double sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  Value top = Value::array();
  for (int i = 0; i < 3; ++i) {
    Value row = Value::object();
    row.set("vertex", order[static_cast<std::size_t>(i)]);
    row.set("score", scores[static_cast<std::size_t>(
                         order[static_cast<std::size_t>(i)])]);
    top.push_back(row);
  }
  Value expected = Value::object();
  expected.set("epoch", 1);
  expected.set("k", 3);
  expected.set("samples", static_cast<std::int64_t>(kN));
  expected.set("seed", 42);
  expected.set("top", top);
  const HttpResult r = get("/bc-topk?k=3&samples=16");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, expected.dump());
}

TEST_F(ServiceTest, PageRankTopkMatchesOfflineKernel) {
  seed();
  const CSRGraph g = offline_graph();
  // The endpoint runs fixed work (tol = 0, exactly `iters` iterations), so
  // the body is a pure function of (epoch, k, iters) — byte-exact against
  // the offline kernel run with identical parameters.
  snap::PageRankParams params;
  params.max_iters = 20;
  params.tol = 0.0;
  const snap::PageRankResult pr = snap::pagerank(g, params);
  std::vector<vid_t> order(kN);
  for (vid_t v = 0; v < kN; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&pr](vid_t a, vid_t b) {
    const double ra = pr.rank[static_cast<std::size_t>(a)];
    const double rb = pr.rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return a < b;
  });
  Value top = Value::array();
  for (int i = 0; i < 4; ++i) {
    Value row = Value::object();
    row.set("vertex", order[static_cast<std::size_t>(i)]);
    row.set("rank", pr.rank[static_cast<std::size_t>(
                        order[static_cast<std::size_t>(i)])]);
    top.push_back(row);
  }
  Value expected = Value::object();
  expected.set("epoch", 1);
  expected.set("k", 4);
  expected.set("iters", 20);
  expected.set("top", top);
  const HttpResult r = get("/pagerank-topk?k=4&iters=20");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, expected.dump());
  // Triangle members out-rank the tail and the detached pair; vertex 2
  // (triangle + tail) carries the most.
  EXPECT_EQ(order[0], 2);
}

TEST_F(ServiceTest, PageRankTopkDefaultsAreStable) {
  seed();
  // Defaults k=10 (clamped to n) and iters=20: two identical requests must
  // return identical bytes — same pinned epoch, deterministic kernel.
  const HttpResult a = get("/pagerank-topk");
  const HttpResult b = get("/pagerank-topk");
  ASSERT_EQ(a.status, 200) << a.error;
  EXPECT_EQ(a.body, b.body);
  Value doc;
  ASSERT_TRUE(snap::json::parse(a.body, &doc, nullptr));
  EXPECT_EQ(doc.get("k").as_int64(), static_cast<std::int64_t>(kN));
  EXPECT_EQ(doc.get("iters").as_int64(), 20);
  EXPECT_EQ(doc.get("epoch").as_int64(), 1);
}

TEST_F(ServiceTest, DeleteUpdatesShrinkTheGraph) {
  seed();
  Value updates = Value::array();
  Value d = Value::object();
  d.set("op", "delete");
  d.set("u", 2);
  d.set("v", 3);
  updates.push_back(d);
  Value doc = Value::object();
  doc.set("updates", updates);
  const HttpResult r =
      http_request("127.0.0.1", port_, "POST", "/ingest", doc.dump());
  ASSERT_EQ(r.status, 200) << r.error;
  Value resp;
  ASSERT_TRUE(snap::json::parse(r.body, &resp, nullptr));
  EXPECT_EQ(resp.get("epoch").as_int64(), 2);
  EXPECT_EQ(resp.get("applied_deletes").as_int64(), 1);

  Value stats;
  ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
  EXPECT_EQ(stats.get("num_edges").as_int64(), 4);
  EXPECT_EQ(stats.get("epoch").as_int64(), 2);
}

TEST_F(ServiceTest, ErrorPaths) {
  seed();
  struct Case {
    const char* method;
    const char* target;
    const char* body;
    int status;
  };
  const Case cases[] = {
      {"GET", "/degree/abc", "", 400},
      {"GET", "/degree/-1", "", 400},
      {"GET", "/degree/999", "", 404},
      {"GET", "/neighbors/xyz", "", 400},
      {"GET", "/cc/999", "", 404},
      {"GET", "/no/such/route", "", 404},
      {"GET", "/ingest", "", 405},
      {"POST", "/stats", "", 405},
      {"POST", "/ingest", "{not json", 400},
      {"POST", "/ingest", "{\"nope\":1}", 400},
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"explode\",\"u\":0,\"v\":1}]}",
       400},
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"insert\",\"u\":-4,\"v\":1}]}",
       400},
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"insert\",\"u\":1e300,\"v\":1}]}",
       400},
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"insert\",\"u\":1.5,\"v\":1}]}",
       400},
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"insert\",\"u\":0}]}", 400},
      // A good record before a bad one must not be applied either.
      {"POST", "/ingest",
       "{\"updates\":[{\"op\":\"insert\",\"u\":6,\"v\":7},"
       "{\"op\":\"insert\",\"u\":-1,\"v\":7}]}",
       400},
      // ...nor one before malformed JSON.
      {"POST", "/ingest", "{\"updates\":[{\"op\":\"insert\",\"u\":6,\"v\":7},",
       400},
      {"GET", "/community?algo=sorcery", "", 400},
      {"GET", "/bc-topk?k=0", "", 400},
      {"GET", "/bc-topk?k=frog", "", 400},
      {"GET", "/pagerank-topk?k=0", "", 400},
      {"GET", "/pagerank-topk?iters=0", "", 400},
      {"GET", "/pagerank-topk?iters=nope", "", 400},
      {"POST", "/pagerank-topk", "", 405},
  };
  Value before;
  ASSERT_TRUE(snap::json::parse(get("/stats").body, &before, nullptr));
  for (const Case& c : cases) {
    const HttpResult r =
        http_request("127.0.0.1", port_, c.method, c.target, c.body);
    EXPECT_EQ(r.status, c.status) << c.method << " " << c.target;
    Value doc;
    ASSERT_TRUE(snap::json::parse(r.body, &doc, nullptr))
        << c.target << " body: " << r.body;
    EXPECT_TRUE(doc.get("error").is_string()) << c.target;
    if (std::string_view(c.target) != "/ingest") continue;
    // A rejected ingest changes nothing: same epoch, same edges.
    Value stats;
    ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
    EXPECT_EQ(stats.get("epoch"), before.get("epoch")) << c.body;
    EXPECT_EQ(stats.get("num_edges"), before.get("num_edges")) << c.body;
  }
}

TEST_F(ServiceTest, KeepAliveServesManyRequestsOnOneConnection) {
  seed();
  HttpClient client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", port_, &err)) << err;
  for (int i = 0; i < 20; ++i) {
    const HttpResult r = client.request("GET", "/degree/2");
    ASSERT_EQ(r.status, 200) << r.error;
    ASSERT_TRUE(client.connected());
  }
}

/// Send `bytes` on a fresh connection and read until the server closes it
/// (or 10 s pass).  HttpClient always writes well-formed requests, so the
/// framing tests speak raw TCP.
std::string raw_exchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) > 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      reply.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return reply;
}

TEST_F(ServiceTest, MalformedHttpGetsA400) {
  // Raw garbage on the socket — the server must answer 400, not hang.
  const std::string reply = raw_exchange(port_, "GARBAGE\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
  EXPECT_NE(reply.find("malformed"), std::string::npos) << reply;
}

/// A POST /ingest that inserts edge 6-7, with `fields` as its framing
/// header lines and `body` after the head.
std::string framed_ingest(const std::string& fields, const std::string& body) {
  return "POST /ingest HTTP/1.1\r\nHost: snap\r\nConnection: close\r\n" +
         fields + "\r\n" + body;
}

const std::string kEdge67 = R"({"updates":[{"op":"insert","u":6,"v":7}]})";

TEST_F(ServiceTest, InvalidContentLengthIsA400AndAppliesNothing) {
  seed();
  const std::string n = std::to_string(kEdge67.size());
  const std::vector<std::string> fields = {
      "Content-Length: -1\r\n",                            // wrapped to 2^64 - 1
      "Content-Length:\r\n",                               // read as 0
      "Content-Length: +" + n + "\r\n",                    // strtoull's sign
      "Content-Length: 5\r\nContent-Length: " + n + "\r\n",  // last one won
      "Content-Length: " + std::string(20 - n.size(), '0') + n + "\r\n",
  };
  for (const std::string& f : fields) {
    const std::string reply = raw_exchange(port_, framed_ingest(f, kEdge67));
    EXPECT_TRUE(reply.starts_with("HTTP/1.1 400 Bad Request\r\n")) << f << reply;
    EXPECT_NE(reply.find("Connection: close"), std::string::npos) << f;
    EXPECT_TRUE(reply.ends_with(R"({"error":"malformed HTTP request"})"))
        << f << reply;
    Value stats;
    ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
    EXPECT_EQ(stats.get("epoch").as_int64(), 1) << f;
  }
  // Over the body cap is still a 413, and a repeated equal value, with
  // spaces and tabs around it, frames the body.
  EXPECT_TRUE(raw_exchange(port_, framed_ingest("Content-Length: 99999999999\r\n",
                                                kEdge67))
                  .starts_with("HTTP/1.1 413 "));
  const std::string same = "Content-Length: \t" + n + " \r\nContent-Length: " +
                           n + "\r\n";
  const std::string reply = raw_exchange(port_, framed_ingest(same, kEdge67));
  EXPECT_TRUE(reply.starts_with("HTTP/1.1 200 OK\r\n")) << reply;
  Value stats;
  ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
  EXPECT_EQ(stats.get("epoch").as_int64(), 2);
}

TEST_F(ServiceTest, TransferEncodingIsA501AndAppliesNothing) {
  seed();
  std::ostringstream chunk;
  chunk << std::hex << kEdge67.size() << "\r\n" << kEdge67 << "\r\n0\r\n\r\n";
  for (const std::string f :
       {"Transfer-Encoding: chunked\r\n",
        "Transfer-Encoding: chunked\r\nContent-Length: 3\r\n"}) {
    const std::string reply = raw_exchange(port_, framed_ingest(f, chunk.str()));
    EXPECT_TRUE(reply.starts_with("HTTP/1.1 501 Not Implemented\r\n"))
        << f << reply;
    EXPECT_NE(reply.find("Connection: close"), std::string::npos) << f;
    Value stats;
    ASSERT_TRUE(snap::json::parse(get("/stats").body, &stats, nullptr));
    EXPECT_EQ(stats.get("epoch").as_int64(), 1) << f;
  }
}

TEST_F(ServiceTest, ConcurrentIngestAndQuery) {
  seed();
  // The server's two workers each serve one keep-alive connection until it
  // closes, and the readers loop until the writer is done, so the writer
  // connects first: two readers accepted ahead of it would hold both
  // workers and the writer would never be served.
  HttpClient writer;
  std::string writer_err;
  ASSERT_TRUE(writer.connect("127.0.0.1", port_, &writer_err)) << writer_err;
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([this, &done, &reads] {
      HttpClient client;
      std::string err;
      ASSERT_TRUE(client.connect("127.0.0.1", port_, &err)) << err;
      std::int64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const HttpResult r = client.request("GET", "/stats");
        ASSERT_EQ(r.status, 200) << r.error;
        Value doc;
        ASSERT_TRUE(snap::json::parse(r.body, &doc, nullptr));
        const std::int64_t e = doc.get("epoch").as_int64();
        ASSERT_GE(e, last_epoch);  // epochs are monotone per reader
        last_epoch = e;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Ingest only once a reader is being served, so the reads overlap the
  // writes however fast an ingest is.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    Value updates = Value::array();
    Value u = Value::object();
    u.set("op", "insert");
    u.set("u", i % kN);
    u.set("v", (i + 3) % kN);
    updates.push_back(u);
    Value doc = Value::object();
    doc.set("updates", updates);
    const HttpResult r = writer.request("POST", "/ingest", doc.dump());
    ASSERT_EQ(r.status, 200) << r.error;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(service_->streaming().epoch(), 51u);
}

TEST_F(ServiceTest, StopDoesNotWaitForAnIdleKeepAliveClient) {
  // After one request the client stays connected and silent, so its worker
  // waits in recv() on the open connection.
  HttpClient idle;
  std::string err;
  ASSERT_TRUE(idle.connect("127.0.0.1", port_, &err)) << err;
  ASSERT_EQ(idle.request("GET", "/stats").status, 200);
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 5.0);
}

TEST_F(ServiceTest, ShutdownEndpointWakesTheWaiter) {
  std::atomic<bool> woke{false};
  std::thread waiter([this, &woke] {
    service_->wait_for_shutdown();
    woke.store(true, std::memory_order_release);
  });
  EXPECT_FALSE(service_->shutdown_requested());
  const HttpResult r = http_request("127.0.0.1", port_, "POST", "/shutdown");
  ASSERT_EQ(r.status, 200) << r.error;
  EXPECT_EQ(r.body, R"({"ok":true})");
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
  EXPECT_TRUE(service_->shutdown_requested());
}

/// Always throws a message holding both characters JSON must escape.
class ThrowingHandler : public snap::server::HttpHandler {
 public:
  static constexpr const char* kMessage = R"(bad "quote" and \back\slash)";
  snap::server::HttpResponse handle(const snap::server::HttpRequest&) override {
    throw std::runtime_error(kMessage);
  }
};

TEST(HttpServerErrors, HandlerExceptionIsAnEscapedJson500) {
  ThrowingHandler handler;
  HttpServer server(&handler, /*threads=*/1);
  std::string err;
  ASSERT_TRUE(server.start("127.0.0.1", 0, &err)) << err;
  const HttpResult r = http_request("127.0.0.1", server.port(), "GET", "/x");
  server.stop();
  EXPECT_EQ(r.status, 500) << r.error;
  Value doc;
  ASSERT_TRUE(snap::json::parse(r.body, &doc, nullptr)) << r.body;
  EXPECT_EQ(doc.get("error").as_string(),
            std::string("internal: ") + ThrowingHandler::kMessage);
}

}  // namespace
