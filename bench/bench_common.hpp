#pragma once

// Shared plumbing for the table/figure reproduction benches.
//
// Scale: every bench honors SNAP_SCALE (default 0.25), a multiplier on the
// paper's instance sizes so the whole suite completes in minutes on one
// machine.  SNAP_SCALE=1 reproduces the paper's exact n and m (GN-based
// benches then take hours, as they did for the authors).
//
// Threads: SNAP_MAX_THREADS (default 32) caps the 1,2,4,...,32 sweep that
// mirrors the Sun Fire T2000's thread range.  On machines with fewer
// hardware threads the sweep still runs — oversubscribed points simply show
// flat speedup.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/util/json.hpp"
#include "snap/util/rng.hpp"

namespace snapbench {

inline double scale() {
  if (const char* s = std::getenv("SNAP_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.25;
}

inline int max_threads() {
  if (const char* s = std::getenv("SNAP_MAX_THREADS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 32;
}

inline std::vector<int> thread_sweep() {
  std::vector<int> ts;
  for (int t = 1; t <= max_threads(); t *= 2) ts.push_back(t);
  return ts;
}

inline snap::vid_t scaled(snap::vid_t x) {
  return std::max<snap::vid_t>(32, static_cast<snap::vid_t>(
                                       static_cast<double>(x) * scale()));
}

/// R-MAT with an arbitrary (non-power-of-two) vertex count: generate at the
/// next power of two and fold ids mod n.  Folding preserves the skewed
/// degree distribution that drives kernel behaviour.
inline snap::CSRGraph rmat_fold(snap::vid_t n, snap::eid_t m, bool directed,
                                std::uint64_t seed) {
  int sc = 1;
  while ((snap::vid_t{1} << sc) < n) ++sc;
  snap::gen::RmatParams p;
  p.scale = sc;
  p.m = m;
  p.directed = directed;
  p.seed = seed;
  const snap::CSRGraph big = snap::gen::rmat(p);
  snap::EdgeList folded;
  folded.reserve(big.edges().size());
  for (snap::Edge e : big.edges()) {
    e.u %= n;
    e.v %= n;
    folded.push_back(e);
  }
  return snap::CSRGraph::from_edges(n, folded, directed);
}

/// One synthetic stand-in for a Table 3 instance.
struct Dataset {
  std::string label;
  std::string type;  ///< "undirected" / "directed", as Table 3 prints
  snap::CSRGraph graph;
};

/// The six instances of Table 3, at SNAP_SCALE * extra times the paper's
/// sizes.  Real networks are replaced by synthetic equivalents matched in
/// size, directedness, and degree-distribution class (see DESIGN.md §2).
/// `extra` lets algorithm-heavy benches (figure sweeps re-running the
/// community algorithms many times) shrink further than metric-only ones.
inline std::vector<Dataset> table3_datasets(bool include_actor = true,
                                            double extra = 1.0) {
  const double s = scale() * extra;
  auto N = [&](snap::vid_t n) {
    return std::max<snap::vid_t>(
        32, static_cast<snap::vid_t>(static_cast<double>(n) * s));
  };
  auto M = [&](snap::eid_t m) {
    return std::max<snap::eid_t>(64, static_cast<snap::eid_t>(
                                         static_cast<double>(m) * s));
  };
  std::vector<Dataset> ds;
  ds.push_back({"PPI", "undirected",
                rmat_fold(N(8503), M(32191), false, 101)});
  ds.push_back({"Citations", "directed",
                rmat_fold(N(27400), M(352504), true, 102)});
  {
    // DBLP: community-heavy co-authorship — planted partition matched in
    // size (m = 1,024,262 → average degree ≈ 6.6).
    const snap::vid_t n = N(310138);
    ds.push_back({"DBLP", "undirected",
                  snap::gen::planted_partition(n, std::max<snap::vid_t>(4, n / 150),
                                               5.6, 1.0, 103)});
  }
  ds.push_back({"NDwww", "directed",
                rmat_fold(N(325729), M(1090107), true, 104)});
  if (include_actor) {
    ds.push_back({"Actor", "undirected",
                  rmat_fold(N(392400), M(31788592), false, 105)});
  }
  ds.push_back({"RMAT-SF", "undirected",
                rmat_fold(N(400000), M(1600000), false, 106)});
  return ds;
}

/// RMAT-SF alone (the Figure 2 instance: 0.4M vertices, 1.6M edges).
inline snap::CSRGraph rmat_sf() {
  return rmat_fold(scaled(400000), std::max<snap::eid_t>(
                                       256, static_cast<snap::eid_t>(
                                                1600000 * scale())),
                   false, 106);
}

/// Value of `--flag value` in argv, or `fallback` when absent.
inline std::string flag_value(int argc, char** argv, const std::string& flag,
                              const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == flag) return argv[i + 1];
  return fallback;
}

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i)
    if (argv[i] == flag) return true;
  return false;
}

/// Machine-readable bench results: every bench can take `--json out.json`
/// and append one record per measurement, so CI archives a perf trajectory
/// that future PRs diff against.  Records carry the bench name, dataset,
/// free-form string params (graph scale, edge counts, ...), the thread
/// count, a phase label, and either seconds or an exact `count` (bytes,
/// elements), which tools/bench_compare.py gates for equality;
/// numeric-looking values are emitted as JSON numbers.  Serialization rides
/// on snap/util/json — the same escape-correct emitter the analytics service
/// answers queries with — so bench output stays parseable no matter what a
/// dataset label contains.
class JsonReport {
 public:
  /// `path` empty = disabled (record/write become no-ops).
  explicit JsonReport(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  using Params = std::vector<std::pair<std::string, std::string>>;

  void record(const std::string& dataset, const Params& params, int threads,
              const std::string& phase, double seconds,
              double throughput = 0.0) {
    if (path_.empty()) return;
    snap::json::Value rec = head(dataset, threads, phase);
    rec.set("seconds", seconds);
    if (throughput > 0) rec.set("throughput", throughput);
    push(std::move(rec), params);
  }

  /// A timing repeated `samples.size()` times: `seconds` is the median, and
  /// `min_s` / `max_s` give the spread.
  void record_reps(const std::string& dataset, const Params& params,
                   int threads, const std::string& phase,
                   std::vector<double> samples, double work = 0.0) {
    if (path_.empty() || samples.empty()) return;
    std::sort(samples.begin(), samples.end());
    const double median = samples[samples.size() / 2];
    snap::json::Value rec = head(dataset, threads, phase);
    rec.set("seconds", median);
    if (work > 0 && median > 0) rec.set("throughput", work / median);
    rec.set("reps", static_cast<std::int64_t>(samples.size()));
    rec.set("min_s", samples.front());
    rec.set("max_s", samples.back());
    push(std::move(rec), params);
  }

  /// A record of an exact count instead of a time: no `seconds`, so it is
  /// never time-gated, and any change to `count` fails the comparison.
  void record_count(const std::string& dataset, const Params& params,
                    int threads, const std::string& phase,
                    std::int64_t count) {
    if (path_.empty()) return;
    snap::json::Value rec = head(dataset, threads, phase);
    rec.set("count", count);
    push(std::move(rec), params);
  }

  /// Write the accumulated records as a JSON array, one record per line.
  void write() const {
    if (path_.empty()) return;
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i)
      out << "  " << records_[i].dump()
          << (i + 1 < records_.size() ? ",\n" : "\n");
    out << "]\n";
    std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
  }

 private:
  snap::json::Value head(const std::string& dataset, int threads,
                         const std::string& phase) const {
    snap::json::Value rec = snap::json::Value::object();
    rec.set("bench", bench_);
    rec.set("dataset", dataset);
    rec.set("threads", threads);
    rec.set("phase", phase);
    return rec;
  }

  void push(snap::json::Value rec, const Params& params) {
    for (const auto& [k, v] : params) {
      if (looks_numeric(v))
        rec.set(k, std::strtod(v.c_str(), nullptr));
      else
        rec.set(k, v);
    }
    records_.push_back(std::move(rec));
  }

  static bool looks_numeric(const std::string& s) {
    if (s.empty()) return false;
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    return end && *end == '\0';
  }

  std::string bench_;
  std::string path_;
  std::vector<snap::json::Value> records_;
};

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("SNAP_SCALE=%.3g (set SNAP_SCALE=1 for the paper's full sizes)\n",
              scale());
  std::printf("================================================================\n");
}

}  // namespace snapbench
