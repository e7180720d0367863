#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "snap/graph/types.hpp"
#include "snap/server/http.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/sync.hpp"

namespace snap::server {

/// Bodies of at least this many bytes (1 MiB) decode on the whole team (see
/// decode_ingest); smaller ones, such as a ~56 KB 1,000-record batch, decode
/// as one chunk on the calling thread.  On an idle 4-core host 4 threads
/// win 2.5-3.5x from 64 KiB up, but a team forked onto busy cores waits for
/// them (~16 ms per decode while a build ran), so the cutoff sits where the
/// serial decode (~5 ms) amortizes a slow fork and far above a batch.
inline constexpr std::int64_t kParallelDecodeCutoff = std::int64_t{1} << 20;

/// Decode a `POST /ingest` body, `{"updates":[{"op","u","v","time"}...]}`,
/// into `*out` (cleared first) with no document tree.  Returns false with
/// the service's 400 message in `*error` when the body is malformed JSON
/// (anywhere, even after a bad record), has no `updates` array, or holds a
/// bad record (the first one is reported).  The last top-level `updates`
/// key and the last duplicate key in a record win; unknown members are
/// validated and skipped.  `u` and `v` must be integral with
/// 0 <= x <= 2^53, `op` must be "insert" or "delete", and `time` reads as 0
/// unless it is integral with |x| <= 2^53.
///
/// A body shaped exactly `{"updates":[...]}` (any whitespace between those
/// tokens) takes the fast path: its array is cut into chunks that start on
/// guessed record boundaries, the chunks are parsed on the team (one chunk
/// below kParallelDecodeCutoff bytes or on one thread), and every record
/// goes straight into one array sized before the parse, at most
/// min('}' bytes, bytes / 27) records per chunk.  A chunk that does not
/// stop exactly where the next one starts, holds a bad record or overflows
/// its slots sends the body, like every other shape, to a whole-document
/// parse, which alone writes the 400 messages.  Either way the verdict and
/// the records are the same at every thread count.
bool decode_ingest(std::string_view body, stream::UpdateBatch* out,
                   std::string* error);

/// The graph analytics service: a JSON-over-HTTP handler that owns one
/// StreamingGraph in eager-snapshot mode and answers every query from a
/// pinned epoch snapshot (snapshot isolation — see docs/SERVICE.md).
///
/// Concurrency model, single-writer / multi-reader:
///   - POST /ingest is serialized by `write_mu_`; the apply() publishes the
///     next epoch's CSR image on the writer thread before returning.
///   - Every read endpoint pins the published snapshot (a mutex-protected
///     shared_ptr copy), answers entirely from that immutable image, and
///     unpins on return.  Readers therefore never touch the mutating
///     DynamicGraph and never hold a lock across kernel work, so they
///     cannot block the writer.
///
/// Endpoints (all responses application/json; errors are
/// `{"error": "..."}` with a 4xx/5xx status):
///   POST /ingest                      body {"updates":[{op,u,v,time}...]}
///   GET  /stats
///   GET  /degree/{v}
///   GET  /neighbors/{v}
///   GET  /cc/{v}
///   GET  /clustering
///   GET  /community?algo=louvain|plp
///   GET  /bc-topk?k=K&samples=S[&seed=N]
///   GET  /pagerank-topk?k=K&iters=N
///   POST /shutdown
class GraphService final : public HttpHandler {
 public:
  /// Service over an initially empty graph on `num_vertices` vertices
  /// (ingest grows it when updates reference larger ids).  The community
  /// and clustering endpoints require an undirected graph; a directed
  /// service still serves the structural endpoints.
  explicit GraphService(vid_t num_vertices, bool directed = false);

  HttpResponse handle(const HttpRequest& request) override;

  /// True once POST /shutdown has been accepted.
  [[nodiscard]] bool shutdown_requested() const;

  /// Block until POST /shutdown arrives (the daemon loop of `snap-cli
  /// serve` parks here).
  void wait_for_shutdown();

  /// The underlying streaming graph — exposed for the replay bench, which
  /// compares service-side epochs against a direct-apply reference.  Do not
  /// mutate it while the server is running; use /ingest.
  [[nodiscard]] const stream::StreamingGraph& streaming() const { return sg_; }

 private:
  HttpResponse route(const HttpRequest& request);

  HttpResponse handle_ingest(const HttpRequest& request);
  HttpResponse handle_stats();
  HttpResponse handle_degree(const std::string& tail);
  HttpResponse handle_neighbors(const std::string& tail);
  HttpResponse handle_cc(const std::string& tail);
  HttpResponse handle_clustering();
  HttpResponse handle_community(const HttpRequest& request);
  HttpResponse handle_bc_topk(const HttpRequest& request);
  HttpResponse handle_pagerank_topk(const HttpRequest& request);
  HttpResponse handle_shutdown();

  // sg_ itself is not GUARDED_BY(write_mu_): its read surface (pin(),
  // epoch(), live_snapshots()) is lock-free reader-safe by the eager-mode
  // contract.  Only the mutating apply() path needs the single-writer
  // mutex, and ingest() below is the one place that calls it.
  stream::StreamingGraph sg_;
  sync::Mutex write_mu_;  // guards: sg_.apply() — the single-writer ingest path

  mutable sync::Mutex shutdown_mu_;  // guards: shutdown_
  sync::CondVar shutdown_cv_;
  bool shutdown_ GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace snap::server
