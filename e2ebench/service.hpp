#pragma once

// The daemon path: POST /ingest -> visible epoch, plus queries, against an
// in-process HttpServer over loopback, with one writer and three reader
// connections.

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "snap/graph/csr_graph.hpp"
#include "snap/server/http.hpp"
#include "snap/stream/update_batch.hpp"
#include "stats.hpp"

namespace e2e {

using Batch = std::vector<snap::stream::UpdateRecord>;

enum Route {
  kIngest,
  kStats,
  kDegree,
  kNeighbors,
  kCc,
  kClustering,
  kPageRankTopk,
  kBcTopk,
  kNumRoutes
};
inline constexpr const char* kRouteNames[kNumRoutes] = {
    "ingest", "stats",      "degree",        "neighbors",
    "cc",     "clustering", "pagerank-topk", "bc-topk"};

/// Which traffic a service window carries.
enum class Shape {
  kIngest,  ///< closed-loop writer, readers on point routes
  kQuery,   ///< open-loop writer trickle, readers on analytic routes
};

struct WriterSpec {
  bool open_loop;
  double batches_per_s;   ///< open loop only
  int inserts_per_batch;  ///< each batch also deletes as many (after `lag`)
  int lag;                ///< batches an inserted edge lives
};
WriterSpec writer_spec(Shape shape);

/// A stationary update stream that never runs out.  Batch i inserts fresh
/// R-MAT edges and deletes the edges inserted `lag` batches earlier, so the
/// edge count stays within inserts * lag of the preload.  Each fresh edge
/// is one call to the library's R-MAT generator over the graph's id range
/// with a seed of its own; an edge already in the graph or live in the
/// stream is drawn again.
class UpdateStream {
 public:
  UpdateStream(const snap::CSRGraph& base, std::uint64_t seed,
               const WriterSpec& spec);
  Batch next();

 private:
  std::pair<snap::vid_t, snap::vid_t> draw();

  const snap::CSRGraph& base_;
  WriterSpec spec_;
  int scale_ = 0;              ///< smallest scale whose id range covers n
  std::uint64_t next_seed_;    ///< generator seed of the next draw
  std::uint64_t time_ = 0;
  std::deque<std::vector<std::pair<snap::vid_t, snap::vid_t>>> history_;
  std::unordered_set<std::uint64_t> live_;  ///< keys of live stream edges
};

/// The preload as `snap-cli serve --in` sends it: one insert per logical
/// edge, (v, u) with u <= v, in CSR order.
Batch preload_records(const snap::CSRGraph& g);
/// `{"updates":[{"op":...,"u":...,"v":...,"time":...},...]}`
std::string render_updates(const Batch& records);
snap::stream::UpdateBatch to_update_batch(const Batch& records);

/// Client-side log of requests, by route.
struct RequestLog {
  std::array<std::vector<double>, kNumRoutes> route_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< non-2xx or transport error
  std::uint64_t responses = 0;  ///< requests the server answered

  void record(Route r, double ms, const snap::server::HttpResult& res);
  void merge(const RequestLog& other);
};

struct WindowResult {
  double window_s = 0;
  std::uint64_t records = 0;  ///< raw update records accepted
  double ingest_busy_s = 0;   ///< summed latency of the accepted POSTs
  std::vector<double> visible_ms;
  std::vector<double> lateness_ms;  ///< open-loop send time - due time
  std::vector<double> read_ms;      ///< every reader request
  RequestLog requests;              ///< readers and writer
  std::int64_t live_snapshots_max = 0;

  void merge(const WindowResult& other);
};

/// Run one window against the server on `port`.  It ends after `seconds`,
/// or, when `max_batches` is non-zero, as soon as the writer has had that
/// many batches accepted and seen each of them visible.  Batches the service
/// accepted are appended to `sent`, in order.
WindowResult run_window(int port, Shape shape, double seconds,
                        std::int64_t max_batches, snap::vid_t num_vertices,
                        std::uint64_t seed, UpdateStream& stream,
                        std::vector<Batch>& sent);

/// Quiesced-service checks: the final epoch's /stats edge count equals a
/// direct-apply reference, and /cc/{v}, /degree/{v}, /neighbors/{v} and
/// /pagerank-topk are byte-equal to the offline kernels' JSON on the
/// reference graph; /clustering and /bc-topk must answer.  The probes are
/// logged into `probes`.
void check_service(int port, const snap::CSRGraph& base,
                   const std::vector<Batch>& sent, std::uint64_t seed,
                   CheckLog& log, RequestLog& probes);

/// Wraps GraphService::handle in a server-layer span whose parent is the
/// client span named by the request's `rid` query parameter, which is
/// stripped before forwarding.
class TracingHandler final : public snap::server::HttpHandler {
 public:
  explicit TracingHandler(snap::server::HttpHandler* inner) : inner_(inner) {}
  snap::server::HttpResponse handle(
      const snap::server::HttpRequest& request) override;

 private:
  snap::server::HttpHandler* inner_;
};

/// Direct replay of the stream's batches through the stream layer (traced
/// run only): lag batches to reach the steady state, then 10 timed ones.
struct StreamMetrics {
  double canonicalize_ms = 0;
  double apply_ms = 0;    ///< lazy apply
  double publish_ms = 0;  ///< lazy pin(): the CSR rebuild
  double apply_eager_ms = 0;
  double publish_share = 0;  ///< publish_ms / apply_eager_ms
  double canonical_arcs = 0;
  double applied_inserts = 0;
  double applied_deletes = 0;
  double snapshot_mb = 0;
  double json_parse_ms = 0;  ///< json::parse of the same batches' bodies
};
StreamMetrics replay_stream(const snap::CSRGraph& base, Shape shape,
                            std::uint64_t seed);

}  // namespace e2e
