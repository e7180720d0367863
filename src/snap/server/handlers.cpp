#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snap/centrality/betweenness.hpp"
#include "snap/community/label_prop.hpp"
#include "snap/community/louvain.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/kernels/pagerank.hpp"
#include "snap/metrics/metrics.hpp"
#include "snap/server/service.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/json.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace snap::server {

namespace {

using snap::json::Value;

HttpResponse json_response(int status, const Value& doc) {
  HttpResponse resp;
  resp.status = status;
  resp.body = doc.dump();
  return resp;
}

HttpResponse error_response(int status, const std::string& message) {
  Value doc = Value::object();
  doc.set("error", message);
  return json_response(status, doc);
}

/// Parse the `{v}` tail of /degree/{v}-style paths.  Returns false unless
/// the tail is a pure decimal integer (no sign, no trailing text).
bool parse_vertex(const std::string& tail, vid_t* out) {
  if (tail.empty() || tail.size() > 19) return false;
  for (const char c : tail)
    if (c < '0' || c > '9') return false;
  *out = static_cast<vid_t>(std::strtoll(tail.c_str(), nullptr, 10));
  return true;
}

/// Parse a non-negative integer query parameter with a default; false on
/// malformed text.
bool parse_int_param(const HttpRequest& req, std::string_view key,
                     std::int64_t dflt, std::int64_t* out) {
  const std::string raw = req.query_value(key);
  if (raw.empty()) {
    *out = dflt;
    return true;
  }
  if (raw.size() > 18) return false;
  for (const char c : raw)
    if (c < '0' || c > '9') return false;
  *out = std::strtoll(raw.c_str(), nullptr, 10);
  return true;
}

/// The k highest-scoring vertices as rows {"vertex": v, key: score}, by
/// score descending with ties toward the smaller vertex id.  k <= n.
Value top_k_rows(const std::vector<double>& scores, std::int64_t k,
                 std::string_view key) {
  std::vector<vid_t> order(scores.size());
  for (std::size_t v = 0; v < order.size(); ++v)
    order[v] = static_cast<vid_t>(v);
  const auto top_end = order.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(order.begin(), top_end, order.end(),
                    [&scores](vid_t a, vid_t b) {
                      const double sa = scores[static_cast<std::size_t>(a)];
                      const double sb = scores[static_cast<std::size_t>(b)];
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
  Value top = Value::array();
  for (std::int64_t i = 0; i < k; ++i) {
    const vid_t v = order[static_cast<std::size_t>(i)];
    Value row = Value::object();
    row.set("vertex", v);
    row.set(key, scores[static_cast<std::size_t>(v)]);
    top.push_back(row);
  }
  return top;
}

/// The /ingest decoder: follows the document's nesting by depth (the open
/// containers) and writes each record of the current top-level "updates"
/// array into its slots as the record closes.  The root object's members
/// sit at depth 1, records at depth 2 and their members at depth 3; every
/// other value is only counted.  A sink started inside the array reads one
/// run of its elements, as json::parse_elements delivers them.
class IngestSink final : public json::Sink {
 public:
  enum class Start : std::uint8_t { kDocument, kInsideUpdates };

  /// Records go to slots [0, cap); one more sets overflowed().
  IngestSink(stream::UpdateRecord* slots, std::size_t cap, Start start)
      : slots_(slots), cap_(cap) {
    if (start == Start::kInsideUpdates) {
      depth_ = 2;
      updates_array_ = in_updates_ = true;
    }
  }

  void null() override { value(Kind::kOther); }
  void boolean(bool /*b*/) override { value(Kind::kOther); }
  void number(double d) override {
    num_ = d;
    value(Kind::kNumber);
  }
  void string(std::string_view s) override {
    str_ = s;
    value(Kind::kString);
  }
  void key(std::string_view k) override {
    if (depth_ == 1) {
      updates_key_ = k == "updates";
    } else if (depth_ == 3 && in_record_) {
      field_ = k == "u"      ? Field::kU
               : k == "v"    ? Field::kV
               : k == "op"   ? Field::kOp
               : k == "time" ? Field::kTime
                             : Field::kOther;
    }
  }
  void begin_array() override {
    value(Kind::kArray);
    ++depth_;
  }
  void begin_object() override {
    value(Kind::kObject);
    ++depth_;
  }
  void end_array() override { close(); }
  void end_object() override { close(); }

  /// After a complete parse: the 400 message, or "" for a good batch.
  [[nodiscard]] std::string verdict() const {
    if (!updates_array_) return "body must be {\"updates\": [...]}";
    return error_;
  }
  /// After a complete parse: every record was good and had a slot.
  [[nodiscard]] bool accepted() const {
    return updates_array_ && error_.empty() && !overflowed_;
  }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  /// Records written to slots [0, size()).
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  enum class Kind : std::uint8_t { kNumber, kString, kArray, kObject, kOther };
  enum class Field : std::uint8_t { kU, kV, kOp, kTime, kOther };
  enum class Op : std::uint8_t { kInsert, kDelete, kBad };

  void value(Kind kind) {
    if (depth_ == 1 && updates_key_) {
      // A later "updates" key replaces everything read from an earlier one.
      updates_array_ = in_updates_ = kind == Kind::kArray;
      size_ = 0;
      overflowed_ = false;
      index_ = 0;
      error_.clear();
    } else if (depth_ == 2 && in_updates_) {
      if (kind != Kind::kObject) {
        reject("is not an object");
        ++index_;
        return;
      }
      in_record_ = true;
      u_ = v_ = -1;
      op_ = Op::kBad;
      time_ = 0;
    } else if (depth_ == 3 && in_record_) {
      // Absent, non-numeric, fractional and out-of-range ids read as -1.
      const bool num = kind == Kind::kNumber;
      switch (field_) {
        case Field::kU:
          u_ = num ? json::exact_int64(num_, -1) : -1;
          break;
        case Field::kV:
          v_ = num ? json::exact_int64(num_, -1) : -1;
          break;
        case Field::kOp:
          op_ = kind != Kind::kString ? Op::kBad
                : str_ == "insert"    ? Op::kInsert
                : str_ == "delete"    ? Op::kDelete
                                      : Op::kBad;
          break;
        case Field::kTime:
          time_ = num ? json::exact_int64(num_, 0) : 0;
          break;
        case Field::kOther:
          break;
      }
    }
  }

  void close() {
    --depth_;
    if (depth_ == 1) {
      in_updates_ = false;
    } else if (depth_ == 2 && in_record_) {
      in_record_ = false;
      if (u_ < 0 || v_ < 0) {
        reject("needs non-negative integer \"u\" and \"v\"");
      } else if (op_ == Op::kBad) {
        reject("\"op\" must be insert or delete");
      } else if (error_.empty()) {
        if (size_ == cap_)
          overflowed_ = true;
        else
          slots_[size_++] = {u_, v_, static_cast<std::uint64_t>(time_),
                             op_ == Op::kInsert ? stream::UpdateKind::kInsert
                                                : stream::UpdateKind::kDelete};
      }
      ++index_;
    }
  }

  /// Keep the first bad record's message; the parse goes on regardless, so
  /// malformed JSON after it still wins.
  void reject(const char* why) {
    if (error_.empty())
      error_ = "updates[" + std::to_string(index_) + "] " + why;
  }

  stream::UpdateRecord* slots_;
  std::size_t cap_;
  std::size_t size_ = 0;
  bool overflowed_ = false;     ///< a good record found no slot
  int depth_ = 0;
  bool updates_key_ = false;    ///< the last root key read was "updates"
  bool updates_array_ = false;  ///< the last "updates" value is an array
  bool in_updates_ = false;     ///< inside that array
  bool in_record_ = false;      ///< inside one of its object records
  std::size_t index_ = 0;       ///< the current record's index
  std::string error_;           ///< first bad record's message, or ""
  double num_ = 0.0;            ///< the scalar being delivered
  std::string_view str_;
  Field field_ = Field::kOther;  ///< the record member being read
  vid_t u_ = -1;
  vid_t v_ = -1;
  Op op_ = Op::kBad;
  std::int64_t time_ = 0;
};

using Records = std::vector<stream::UpdateRecord>;

/// The shortest record decode_ingest accepts: {"u":0,"v":0,"op":"insert"}.
constexpr std::size_t kMinRecordBytes = 27;

std::size_t count_braces(std::string_view text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '}'));
}

/// How many good records a text of `bytes` bytes holding `braces` '}' bytes
/// can hold: each is at least kMinRecordBytes long and closes with its own
/// '}'.  The '}' count is exact for flat records; the byte count caps it
/// for a body of "}}}}" or "{},{},{}".
std::size_t record_bound(std::size_t braces, std::size_t bytes) {
  return std::min(braces, bytes / kMinRecordBytes);
}

/// The whole-document decode: every body the chunked path does not take,
/// and the one writer of 400 messages.  Returns the message, or "" with
/// `*records` holding the batch.  A chunked attempt that failed leaves
/// `*records` sized to the body's bound, and this pass reuses it.
std::string decode_document(std::string_view body, Records* records) {
  if (records->empty())
    *records = Records(record_bound(count_braces(body), body.size()));
  IngestSink sink(records->data(), records->size(),
                  IngestSink::Start::kDocument);
  std::string err;
  if (!json::parse(body, sink, &err)) return "malformed JSON body: " + err;
  // The records it kept are disjoint spans of the body, each at least
  // kMinRecordBytes long with its own '}', so the bound holds them all.
  if (sink.overflowed())
    throw std::logic_error("decode_ingest: records beyond the body's bound");
  std::string verdict = sink.verdict();
  if (verdict.empty()) records->resize(sink.size());
  return verdict;
}

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// The `updates` array of a body shaped exactly {"updates":[...]}, with any
/// JSON whitespace between those tokens: true with `*open` just past its
/// '[' and `*close` on its ']' (the last one in the body).
bool updates_array(std::string_view body, std::size_t* open,
                   std::size_t* close) {
  std::size_t i = 0;
  const auto take = [&](std::string_view token) {
    while (i < body.size() && is_ws(body[i])) ++i;
    if (body.substr(i, token.size()) != token) return false;
    i += token.size();
    return true;
  };
  if (!take("{") || !take("\"updates\"") || !take(":") || !take("["))
    return false;
  std::size_t j = body.size();
  const auto take_back = [&](char token) {
    while (j > 0 && is_ws(body[j - 1])) --j;
    if (j == 0 || body[j - 1] != token) return false;
    --j;
    return true;
  };
  if (!take_back('}') || !take_back(']') || j < i) return false;
  *open = i;
  *close = j;
  return true;
}

/// The first '{' in [lo, hi) whose previous non-whitespace byte is ',', or
/// npos: where a later chunk would start if the byte is a record's first.
/// Only a guess, since the byte may sit inside a string or a nested value.
std::size_t guess_start(std::string_view body, std::size_t lo,
                        std::size_t hi) {
  const std::string_view window = body.substr(0, hi);
  for (std::size_t at = window.find('{', lo); at != std::string_view::npos;
       at = window.find('{', at + 1)) {
    std::size_t b = at;
    while (b > 0 && is_ws(body[b - 1])) --b;
    if (b > 0 && body[b - 1] == ',') return at;
  }
  return std::string_view::npos;
}

/// The fast path, for bodies shaped {"updates":[...]}: the array is cut at
/// equal byte offsets into chunks that start on guessed record boundaries,
/// and each chunk is parsed on the team straight into its own slot range of
/// one records array, sized before the parse.  False for any other shape,
/// with `*records` empty, or when a chunk fails its check, with `*records`
/// sized to the whole body's bound; the caller then decodes the whole
/// document into the same array.  Below kParallelDecodeCutoff bytes, or on
/// one thread, the array is one chunk and nothing forks.
bool decode_chunked(std::string_view body, Records* records) {
  std::size_t open = 0;
  std::size_t close = 0;
  if (!updates_array(body, &open, &close)) return false;
  const std::size_t want =
      parallel::use_parallel(ExecPath::kAuto,
                             static_cast<std::int64_t>(body.size()),
                             kParallelDecodeCutoff)
          ? 4 * static_cast<std::size_t>(parallel::num_threads())
          : 1;
  const std::size_t len = close - open;
  std::vector<std::size_t> start{open};
  for (std::size_t c = 1; c < want; ++c) {
    const std::size_t at =
        guess_start(body, std::max(open + len * c / want, start.back() + 1),
                    open + len * (c + 1) / want);
    if (at != std::string_view::npos) start.push_back(at);
  }
  const std::size_t chunks = start.size();
  start.push_back(close);

  // Chunk c writes only into slots [slot[c], slot[c + 1]).  For flat
  // records every '}' closes one record, so the chunks' bounds are exact.
  std::vector<std::size_t> braces(chunks, 0);
  parallel::parallel_for(chunks, [&](std::size_t c) {
    braces[c] = count_braces(body.substr(start[c], start[c + 1] - start[c]));
  });
  std::vector<std::size_t> slot(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c)
    slot[c + 1] =
        slot[c] + record_bound(braces[c], start[c + 1] - start[c]);
  // One array serves both paths.  The array's '}' bytes bound the records
  // of either parse (the root object's '}' closes none), and
  // min(their sum, body / 27) is at least the chunks' sum, so a failed
  // attempt hands the array to decode_document; for flat records it is
  // exact.
  std::size_t array_braces = 0;
  for (const std::size_t b : braces) array_braces += b;
  *records = Records(record_bound(array_braces, body.size()));

  // Chunk c must stop exactly on chunk c + 1's start, and the last chunk on
  // the ']'.  Then, by induction from the first chunk (which starts just
  // past the '['), every start is a true record start, and the chunks'
  // records are the whole-document parse's records in the same order.  A
  // start that lands inside a string or a nested value fails the check.
  std::vector<std::size_t> used(chunks, 0);
  std::vector<std::uint8_t> good(chunks, 0);
  parallel::parallel_for_dynamic(
      chunks,
      [&](std::size_t c) {
        IngestSink sink(records->data() + slot[c], slot[c + 1] - slot[c],
                        IngestSink::Start::kInsideUpdates);
        const std::size_t limit =
            c + 1 < chunks ? start[c + 1] : std::string_view::npos;
        std::size_t stop = 0;
        good[c] = json::parse_elements(body, start[c], /*depth=*/2, limit,
                                       sink, &stop) &&
                  sink.accepted() && stop == start[c + 1];
        used[c] = sink.size();
      },
      /*chunk=*/1);
  if (std::find(good.begin(), good.end(), 0) != good.end()) return false;

  // Close up the gaps left to right (a run never moves right, and one
  // already in place is skipped: std::move must not target its source).
  std::size_t size = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (size != slot[c]) {
      const auto from = records->begin() + static_cast<std::ptrdiff_t>(slot[c]);
      std::move(from, from + static_cast<std::ptrdiff_t>(used[c]),
                records->begin() + static_cast<std::ptrdiff_t>(size));
    }
    size += used[c];
  }
  records->resize(size);
  return true;
}

}  // namespace

bool decode_ingest(std::string_view body, stream::UpdateBatch* out,
                   std::string* error) {
  out->clear();
  Records records;
  *error = decode_chunked(body, &records) ? std::string()
                                          : decode_document(body, &records);
  if (!error->empty()) return false;
  out->assign(std::move(records));
  return true;
}

GraphService::GraphService(vid_t num_vertices, bool directed)
    : sg_(num_vertices, directed) {
  // The whole point of the service: readers pin published epoch images and
  // never race the writer.  See StreamingGraph::set_eager_snapshots.
  sg_.set_eager_snapshots(true);
}

bool GraphService::shutdown_requested() const {
  sync::MutexLock lk(shutdown_mu_);
  return shutdown_;
}

void GraphService::wait_for_shutdown() {
  sync::MutexLock lk(shutdown_mu_);
  while (!shutdown_) shutdown_cv_.wait(shutdown_mu_);
}

HttpResponse GraphService::handle(const HttpRequest& request) {
  return route(request);
}

HttpResponse GraphService::route(const HttpRequest& request) {
  const std::string& p = request.path;
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (p == "/ingest")
    return is_post ? handle_ingest(request)
                   : error_response(405, "use POST /ingest");
  if (p == "/shutdown")
    return is_post ? handle_shutdown()
                   : error_response(405, "use POST /shutdown");
  if (p == "/stats")
    return is_get ? handle_stats() : error_response(405, "use GET /stats");
  if (p == "/clustering")
    return is_get ? handle_clustering()
                  : error_response(405, "use GET /clustering");
  if (p == "/community")
    return is_get ? handle_community(request)
                  : error_response(405, "use GET /community");
  if (p == "/bc-topk")
    return is_get ? handle_bc_topk(request)
                  : error_response(405, "use GET /bc-topk");
  if (p == "/pagerank-topk")
    return is_get ? handle_pagerank_topk(request)
                  : error_response(405, "use GET /pagerank-topk");
  if (p.rfind("/degree/", 0) == 0)
    return is_get ? handle_degree(p.substr(8))
                  : error_response(405, "use GET /degree/{v}");
  if (p.rfind("/neighbors/", 0) == 0)
    return is_get ? handle_neighbors(p.substr(11))
                  : error_response(405, "use GET /neighbors/{v}");
  if (p.rfind("/cc/", 0) == 0)
    return is_get ? handle_cc(p.substr(4))
                  : error_response(405, "use GET /cc/{v}");
  return error_response(404, "no such route: " + p);
}

// --------------------------------------------------------------------------
// POST /ingest — the single writer.

HttpResponse GraphService::handle_ingest(const HttpRequest& request) {
  stream::UpdateBatch batch;
  std::string err;
  if (!decode_ingest(request.body, &batch, &err))
    return error_response(400, err);

  stream::ApplyStats stats;
  std::uint64_t epoch = 0;
  {
    sync::MutexLock lk(write_mu_);
    stats = sg_.apply(std::move(batch));
    epoch = sg_.epoch();
  }
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(epoch));
  out.set("raw_records", static_cast<std::int64_t>(stats.raw_records));
  out.set("canonical_arcs", static_cast<std::int64_t>(stats.canonical_arcs));
  out.set("applied_inserts",
          static_cast<std::int64_t>(stats.applied_inserts));
  out.set("applied_deletes",
          static_cast<std::int64_t>(stats.applied_deletes));
  return json_response(200, out);
}

// --------------------------------------------------------------------------
// Read endpoints — each pins one snapshot and answers only from it.

HttpResponse GraphService::handle_stats() {
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("num_vertices", g.num_vertices());
  out.set("num_edges", g.num_edges());
  out.set("num_arcs", g.num_arcs());
  out.set("directed", g.directed());
  // Reclamation observability: epochs currently alive = the published
  // snapshot plus superseded ones still pinned by in-flight queries.  A
  // value stuck above 1 while the service is idle is a pin leak.
  out.set("live_snapshots",
          static_cast<std::int64_t>(sg_.live_snapshots()));
  return json_response(200, out);
}

HttpResponse GraphService::handle_degree(const std::string& tail) {
  vid_t v = 0;
  if (!parse_vertex(tail, &v))
    return error_response(400, "bad vertex id: " + tail);
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (v >= g.num_vertices())
    return error_response(404, "vertex " + tail + " out of range");
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("vertex", v);
  out.set("degree", g.degree(v));
  return json_response(200, out);
}

HttpResponse GraphService::handle_neighbors(const std::string& tail) {
  vid_t v = 0;
  if (!parse_vertex(tail, &v))
    return error_response(400, "bad vertex id: " + tail);
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (v >= g.num_vertices())
    return error_response(404, "vertex " + tail + " out of range");
  Value nbrs = Value::array();
  for (const vid_t u : g.neighbors(v)) nbrs.push_back(u);
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("vertex", v);
  out.set("degree", g.degree(v));
  out.set("neighbors", nbrs);
  return json_response(200, out);
}

HttpResponse GraphService::handle_cc(const std::string& tail) {
  vid_t v = 0;
  if (!parse_vertex(tail, &v))
    return error_response(400, "bad vertex id: " + tail);
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (v >= g.num_vertices())
    return error_response(404, "vertex " + tail + " out of range");
  const Components comps = connected_components(g);
  const vid_t label = comps.label[static_cast<std::size_t>(v)];
  const std::vector<vid_t> sizes = comps.sizes();
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("vertex", v);
  out.set("component", label);
  out.set("component_size", sizes[static_cast<std::size_t>(label)]);
  out.set("num_components", comps.count);
  return json_response(200, out);
}

HttpResponse GraphService::handle_clustering() {
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (g.directed())
    return error_response(
        400, "clustering coefficients require an undirected graph");
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  const TriangleCounts t = count_triangles(g);
  out.set("average", t.average());
  out.set("global", t.global());
  return json_response(200, out);
}

HttpResponse GraphService::handle_community(const HttpRequest& request) {
  const std::string algo = request.query_value("algo", "louvain");
  if (algo != "louvain" && algo != "plp")
    return error_response(400, "algo must be louvain or plp, got: " + algo);
  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (g.directed())
    return error_response(400,
                          "community detection requires an undirected graph");
  CommunityResult result;
  if (algo == "louvain")
    result = louvain(g).community;
  else
    result = label_propagation(g).community;
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("algo", algo);
  out.set("num_communities", result.clustering.num_clusters);
  out.set("modularity", result.modularity);
  return json_response(200, out);
}

HttpResponse GraphService::handle_bc_topk(const HttpRequest& request) {
  std::int64_t k = 0;
  std::int64_t samples = 0;
  std::int64_t seed = 0;
  if (!parse_int_param(request, "k", 10, &k) ||
      !parse_int_param(request, "samples", 16, &samples) ||
      !parse_int_param(request, "seed", 42, &seed))
    return error_response(400, "k, samples and seed must be non-negative "
                               "integers");
  if (k < 1 || samples < 1)
    return error_response(400, "k and samples must be >= 1");

  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  const vid_t n = g.num_vertices();
  if (n == 0) return error_response(400, "graph is empty");

  // Distinct sample of source vertices, deterministic in `seed`.
  std::vector<vid_t> sources;
  if (samples >= n) {
    sources.resize(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) sources[static_cast<std::size_t>(v)] = v;
  } else {
    // Partial Fisher–Yates over the id range: draw `samples` distinct ids.
    std::vector<vid_t> pool(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) pool[static_cast<std::size_t>(v)] = v;
    SplitMix64 rng(static_cast<std::uint64_t>(seed));
    for (std::int64_t i = 0; i < samples; ++i) {
      const auto j = static_cast<std::size_t>(
          i + static_cast<std::int64_t>(rng.next_bounded(
                  static_cast<std::uint64_t>(n - i))));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    }
    sources.assign(pool.begin(), pool.begin() + samples);
  }

  const std::vector<double> scores = approx_vertex_betweenness(g, sources);
  const std::int64_t kk = std::min<std::int64_t>(k, n);
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("k", kk);
  out.set("samples",
          static_cast<std::int64_t>(std::min<std::int64_t>(samples, n)));
  out.set("seed", seed);
  out.set("top", top_k_rows(scores, kk, "score"));
  return json_response(200, out);
}

HttpResponse GraphService::handle_pagerank_topk(const HttpRequest& request) {
  std::int64_t k = 0;
  std::int64_t iters = 0;
  if (!parse_int_param(request, "k", 10, &k) ||
      !parse_int_param(request, "iters", 20, &iters))
    return error_response(400, "k and iters must be non-negative integers");
  if (k < 1 || iters < 1)
    return error_response(400, "k and iters must be >= 1");

  const stream::SnapshotHandle snap = sg_.pin();
  const CSRGraph& g = snap->graph();
  if (g.directed())
    return error_response(400, "pagerank requires an undirected graph");
  const vid_t n = g.num_vertices();
  if (n == 0) return error_response(400, "graph is empty");

  // Fixed work (tol = 0, exactly `iters` fixed-point iterations): the
  // response is a pure function of (snapshot epoch, k, iters) — byte-exact
  // across repeats, which the service test pins.
  PageRankParams params;
  params.max_iters = static_cast<int>(std::min<std::int64_t>(iters, 10000));
  params.tol = 0.0;
  const PageRankResult r = pagerank(g, params);
  const std::int64_t kk = std::min<std::int64_t>(k, n);
  Value out = Value::object();
  out.set("epoch", static_cast<std::int64_t>(snap->epoch()));
  out.set("k", kk);
  out.set("iters", static_cast<std::int64_t>(params.max_iters));
  out.set("top", top_k_rows(r.rank, kk, "rank"));
  return json_response(200, out);
}

HttpResponse GraphService::handle_shutdown() {
  {
    sync::MutexLock lk(shutdown_mu_);
    shutdown_ = true;
  }
  shutdown_cv_.notify_all();
  Value out = Value::object();
  out.set("ok", true);
  return json_response(200, out);
}

}  // namespace snap::server
