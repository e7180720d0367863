#include "snap/kernels/st_connectivity.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>
#include <vector>

#include "snap/kernels/frontier.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

StConnectivity st_connectivity(const CSRGraph& g, vid_t s, vid_t t) {
  if (g.directed())
    throw std::invalid_argument(
        "st_connectivity requires an undirected graph");
  StConnectivity r;
  if (s == t) {
    r.connected = true;
    r.distance = 0;
    r.vertices_touched = 1;
    return r;
  }
  const vid_t n = g.num_vertices();
  // mark > 0: distance+1 from s; mark < 0: -(distance+1) from t.  Claims are
  // CAS-guarded so each level can expand on the shared frontier substrate.
  std::vector<std::atomic<std::int64_t>> mark(static_cast<std::size_t>(n));
  parallel::parallel_for(n, [&](vid_t v) {
    mark[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
  });
  mark[static_cast<std::size_t>(s)].store(1, std::memory_order_relaxed);
  mark[static_cast<std::size_t>(t)].store(-1, std::memory_order_relaxed);
  std::vector<vid_t> fs{s}, ft{t}, next;
  FrontierPool pool;
  const int nt = parallel::num_threads();
  std::int64_t ds = 0, dt = 0;  // depths expanded so far on each side
  r.vertices_touched = 2;

  std::atomic<std::int64_t> best{std::numeric_limits<std::int64_t>::max()};
  while (!fs.empty() && !ft.empty()) {
    // Any yet-undiscovered s-t path must exit both search balls, so its
    // length is at least ds + dt: once that bound reaches the best meeting
    // found, the best is optimal.
    if (best.load(std::memory_order_relaxed) <= ds + dt) break;
    // Expand the smaller frontier (classic bidirectional balance rule).
    const bool from_s = fs.size() <= ft.size();
    auto& frontier = from_s ? fs : ft;
    const std::int64_t depth = (from_s ? ++ds : ++dt);
    const std::int64_t claim = from_s ? depth + 1 : -(depth + 1);
    expand_arc_balanced(
        g, frontier, next, pool, nt, [&](vid_t, vid_t v) {
          auto& mv = mark[static_cast<std::size_t>(v)];
          std::int64_t expected = 0;
          if (mv.compare_exchange_strong(expected, claim,
                                         std::memory_order_relaxed)) {
            return true;
          }
          if ((expected > 0) != from_s) {
            // The two balls met at v: total = depth on this side + recorded
            // depth on the other.  Keep the best; every meet is a real path,
            // so best only ever overestimates until the bound above closes.
            parallel::atomic_fetch_min(
                best,
                depth + (expected > 0 ? expected - 1 : -expected - 1));
          }
          return false;
        });
    frontier.swap(next);
    r.vertices_touched += static_cast<std::int64_t>(frontier.size());
  }
  const std::int64_t found = best.load(std::memory_order_relaxed);
  if (found < std::numeric_limits<std::int64_t>::max()) {
    r.connected = true;
    r.distance = found;
  }
  return r;  // otherwise one side exhausted: different components
}

}  // namespace snap
