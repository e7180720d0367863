// Streaming-update throughput bench: updates/second for batched parallel
// application (StreamingGraph::apply) across batch sizes {1k, 10k, 100k} and
// a thread sweep, insert-only and 80/20 insert/delete mixed streams, against
// the serial one-edge-at-a-time reference (a raw DynamicGraph
// insert_edge/delete_edge loop in stream order).
//
//   bench_stream [--smoke] [--json out.json]
//
// --smoke shrinks the base graph and the per-configuration update volume so
// CI can run this as a smoke step, but keeps the 100k-update batch and the
// 8-thread point: the JSON records a "speedup" entry for batched parallel at
// the top thread count vs the serial single-edge loop on the largest batch.
// Every record has its own phase (serial_single_edge:<mode>,
// batched:<mode>:b<size>:t<threads>, speedup:<mode>), the key
// tools/bench_compare.py matches baselines on.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "corpus.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/graph/dynamic_graph.hpp"
#include "snap/stream/streaming_graph.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"
#include "snap/util/timer.hpp"

namespace {

using snap::DynamicGraph;
using snap::stream::StreamingGraph;
using snap::stream::UpdateBatch;
using snap::stream::UpdateKind;
using snap::stream::UpdateRecord;
using snapbench::JsonReport;

std::vector<UpdateRecord> make_records(snap::vid_t n, std::size_t count,
                                       int delete_pct, std::uint64_t seed) {
  snap::SplitMix64 rng(seed);
  std::vector<UpdateRecord> recs;
  recs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<snap::vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<snap::vid_t>(
        rng.next_bounded(static_cast<std::uint64_t>(n)));
    const UpdateKind kind =
        rng.next_bounded(100) < static_cast<std::uint64_t>(delete_pct)
            ? UpdateKind::kDelete
            : UpdateKind::kInsert;
    recs.push_back({u, v, static_cast<std::uint64_t>(i), kind});
  }
  return recs;
}

/// Batched path: records partitioned into batches of `batch_size`, each
/// applied through StreamingGraph::apply at the ambient thread count.  Batch
/// assembly is stream ingestion — both paths consume the same pre-built
/// records, so only application is timed.
double run_batched(const snap::CSRGraph& base,
                   const std::vector<UpdateRecord>& recs,
                   std::size_t batch_size) {
  std::vector<UpdateBatch> batches;
  std::size_t at = 0;
  while (at < recs.size()) {
    const std::size_t hi = std::min(at + batch_size, recs.size());
    UpdateBatch& batch = batches.emplace_back();
    for (std::size_t i = at; i < hi; ++i) {
      const UpdateRecord& r = recs[i];
      if (r.kind == UpdateKind::kInsert)
        batch.insert(r.u, r.v, r.time);
      else
        batch.erase(r.u, r.v, r.time);
    }
    at = hi;
  }
  StreamingGraph sg(DynamicGraph::from_csr(base));
  snap::WallTimer timer;
  for (UpdateBatch& batch : batches) sg.apply(std::move(batch));
  return timer.elapsed_s();
}

/// The reference everything is measured against: one edge at a time, in
/// stream order, straight into the dynamic graph.
double run_serial_single_edge(const snap::CSRGraph& base,
                              const std::vector<UpdateRecord>& recs) {
  DynamicGraph g = DynamicGraph::from_csr(base);
  snap::WallTimer timer;
  for (const UpdateRecord& r : recs) {
    if (r.kind == UpdateKind::kInsert)
      g.insert_edge(r.u, r.v);
    else
      g.delete_edge(r.u, r.v);
  }
  return timer.elapsed_s();
}

double ups(std::size_t updates, double seconds) {
  return seconds > 0 ? static_cast<double>(updates) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = snapbench::has_flag(argc, argv, "--smoke");
  JsonReport report("bench_stream",
                    snapbench::flag_value(argc, argv, "--json"));
  snapbench::print_header(
      "Streaming updates: batched parallel vs serial single-edge (updates/s)");

  // Base graph the stream mutates; the update volume per configuration keeps
  // the largest batch size exercised even in smoke mode.
  std::string corpus_name;
  snap::CSRGraph corpus_graph;
  const bool use_corpus = snapbench::corpus_from_flags(
      argc, argv, &corpus_name, &corpus_graph);
  const snap::vid_t n =
      use_corpus ? corpus_graph.num_vertices() : (smoke ? (1 << 15) : (1 << 17));
  const snap::eid_t m = 16 * static_cast<snap::eid_t>(n);
  const snap::CSRGraph base = use_corpus
                                  ? std::move(corpus_graph)
                                  : snapbench::rmat_fold(n, m, false, 77);
  const std::size_t total_updates = smoke ? 200000 : 800000;

  const std::vector<std::size_t> batch_sizes = {1000, 10000, 100000};
  std::vector<int> threads;
  for (int t = 1; t <= std::min(8, snapbench::max_threads()); t *= 2)
    threads.push_back(t);
  const int top_threads = threads.back();

  struct Mode {
    const char* label;
    int delete_pct;
  };
  const Mode modes[] = {{"insert_only", 0}, {"mixed_80_20", 20}};

  for (const Mode& mode : modes) {
    const auto recs = make_records(n, total_updates, mode.delete_pct, 13);
    std::printf("\n-- %s (n=%lld, m=%lld, %zu updates) --\n", mode.label,
                static_cast<long long>(n), static_cast<long long>(m),
                recs.size());

    const double serial_s = run_serial_single_edge(base, recs);
    std::printf("%-24s %12.3fs %14.0f updates/s\n", "serial single-edge",
                serial_s, ups(recs.size(), serial_s));
    const std::string label = mode.label;
    report.record("rmat_fold", {{"mode", label}}, 1,
                  "serial_single_edge:" + label, serial_s,
                  ups(recs.size(), serial_s));

    double top_batched_s = 0;
    for (const std::size_t bs : batch_sizes) {
      for (const int t : threads) {
        snap::parallel::ThreadScope scope(t);
        const double s = run_batched(base, recs, bs);
        std::printf("batch=%-8zu threads=%d %9.3fs %14.0f updates/s\n", bs, t,
                    s, ups(recs.size(), s));
        report.record("rmat_fold",
                      {{"mode", label}, {"batch_size", std::to_string(bs)}},
                      t,
                      "batched:" + label + ":b" + std::to_string(bs) + ":t" +
                          std::to_string(t),
                      s, ups(recs.size(), s));
        if (bs == batch_sizes.back() && t == top_threads) top_batched_s = s;
      }
    }

    // The acceptance headline: batched parallel at the top thread count vs
    // the serial single-edge loop, largest batch size.
    const double speedup = top_batched_s > 0 ? serial_s / top_batched_s : 0.0;
    std::printf("speedup (batch=%zu, %d threads vs serial): %.2fx\n",
                batch_sizes.back(), top_threads, speedup);
    report.record("rmat_fold",
                  {{"mode", label},
                   {"batch_size", std::to_string(batch_sizes.back())},
                   {"speedup", std::to_string(speedup)}},
                  top_threads, "speedup:" + label, top_batched_s,
                  ups(recs.size(), top_batched_s));
  }

  report.write();
  return 0;
}
