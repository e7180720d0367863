#include "snap/metrics/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "snap/graph/dynamic_graph.hpp"
#include "snap/kernels/connected_components.hpp"
#include "snap/metrics/path_length.hpp"
#include "snap/util/parallel.hpp"

namespace snap {

double average_degree(const CSRGraph& g) {
  return g.num_vertices() == 0
             ? 0.0
             : static_cast<double>(g.num_arcs()) /
                   static_cast<double>(g.num_vertices());
}

std::vector<eid_t> degree_histogram(const CSRGraph& g) {
  std::vector<eid_t> hist(static_cast<std::size_t>(g.max_degree()) + 1, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ++hist[static_cast<std::size_t>(g.degree(v))];
  return hist;
}

double TriangleCounts::local(vid_t v) const {
  const eid_t d = degree[static_cast<std::size_t>(v)];
  if (d < 2) return 0.0;
  return 2.0 * static_cast<double>(triangles[static_cast<std::size_t>(v)]) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

double TriangleCounts::average() const {
  if (degree.empty()) return 0.0;
  double sum = 0;
  for (vid_t v = 0; v < static_cast<vid_t>(degree.size()); ++v)
    sum += local(v);
  return sum / static_cast<double>(degree.size());
}

double TriangleCounts::global() const {
  return num_wedges == 0 ? 0.0
                         : static_cast<double>(3 * num_triangles) /
                               static_cast<double>(num_wedges);
}

template <typename G>
TriangleCounts count_triangles(const G& g) {
  const vid_t n = g.num_vertices();
  TriangleCounts t;
  t.degree.assign(static_cast<std::size_t>(n), 0);
  t.triangles.assign(static_cast<std::size_t>(n), 0);
  auto credit = [&t](vid_t x, std::int64_t c) {
    // reduction: integer triangle credits; integer sums do not depend on
    // the order of the adds, so the counts are identical at every thread
    // count.
    std::atomic_ref<std::int64_t>(t.triangles[static_cast<std::size_t>(x)])
        .fetch_add(c, std::memory_order_relaxed);
  };
  parallel::parallel_for_dynamic(
      n,
      [&](vid_t u) {
        const auto au = g.neighbors(u);
        const auto [lo, hi] = std::equal_range(au.begin(), au.end(), u);
        t.degree[static_cast<std::size_t>(u)] =
            static_cast<eid_t>(au.size()) - static_cast<eid_t>(hi - lo);
        // Above u the row is strictly ascending, so the entries after v are
        // exactly u's neighbours above v.
        std::int64_t tu = 0;
        for (auto it = hi; it != au.end(); ++it) {
          const vid_t v = *it;
          const auto av = g.neighbors(v);
          auto iu = it + 1;
          auto iv = std::upper_bound(av.begin(), av.end(), v);
          std::int64_t tv = 0;
          while (iu != au.end() && iv != av.end()) {
            if (*iu < *iv) {
              ++iu;
            } else if (*iv < *iu) {
              ++iv;
            } else {
              credit(*iu, 1);
              ++tv;
              ++iu;
              ++iv;
            }
          }
          if (tv != 0) credit(v, tv);
          tu += tv;
        }
        if (tu != 0) credit(u, tu);
      },
      16);
  std::int64_t corners = 0;
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = t.degree[static_cast<std::size_t>(v)];
    corners += t.triangles[static_cast<std::size_t>(v)];
    t.num_wedges += d * (d - 1) / 2;
  }
  t.num_triangles = corners / 3;
  return t;
}

template TriangleCounts count_triangles(const CSRGraph&);
template TriangleCounts count_triangles(const DynamicGraph&);

std::vector<double> local_clustering_coefficients(const CSRGraph& g) {
  const TriangleCounts t = count_triangles(g);
  std::vector<double> cc(t.degree.size());
  for (vid_t v = 0; v < static_cast<vid_t>(cc.size()); ++v)
    cc[static_cast<std::size_t>(v)] = t.local(v);
  return cc;
}

double average_clustering_coefficient(const CSRGraph& g) {
  return count_triangles(g).average();
}

double global_clustering_coefficient(const CSRGraph& g) {
  return count_triangles(g).global();
}

std::vector<double> rich_club_coefficients(const CSRGraph& g) {
  const eid_t dmax = g.max_degree();
  std::vector<double> phi(static_cast<std::size_t>(dmax) + 1, 0.0);
  // Count, for each k: N_k = |{v : deg(v) > k}| and E_k = edges inside.
  // Sweep k descending, adding vertices as their degree threshold passes —
  // but a simple per-k recount is O(dmax * m); instead bucket by degree.
  std::vector<vid_t> nk(static_cast<std::size_t>(dmax) + 2, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ++nk[static_cast<std::size_t>(g.degree(v))];
  // nk[k] currently = #vertices with degree exactly k; make it #degree > k.
  std::vector<vid_t> above(static_cast<std::size_t>(dmax) + 1, 0);
  vid_t run = 0;
  for (eid_t k = dmax; k >= 0; --k) {
    above[static_cast<std::size_t>(k)] = run;  // degree > k
    run += nk[static_cast<std::size_t>(k)];
    if (k == 0) break;
  }
  // ek[k] = #edges whose both endpoints have degree > k
  //       = #edges with min(deg(u), deg(v)) > k.
  std::vector<eid_t> edge_min_deg_count(static_cast<std::size_t>(dmax) + 1, 0);
  for (const Edge& e : g.edges()) {
    const eid_t md = std::min(g.degree(e.u), g.degree(e.v));
    ++edge_min_deg_count[static_cast<std::size_t>(md)];
  }
  eid_t erun = 0;
  for (eid_t k = dmax; k >= 0; --k) {
    // edges with min degree > k
    const vid_t cnt = above[static_cast<std::size_t>(k)];
    if (cnt >= 2) {
      phi[static_cast<std::size_t>(k)] =
          2.0 * static_cast<double>(erun) /
          (static_cast<double>(cnt) * static_cast<double>(cnt - 1));
    }
    erun += edge_min_deg_count[static_cast<std::size_t>(k)];
    if (k == 0) break;
  }
  return phi;
}

double assortativity_coefficient(const CSRGraph& g) {
  // Newman's r over edges, using excess degree (degree - 1) per convention.
  double s_jk = 0, s_j = 0, s_k = 0, s_j2 = 0, s_k2 = 0;
  eid_t m = 0;
  for (const Edge& e : g.edges()) {
    const double j = static_cast<double>(g.degree(e.u)) - 1;
    const double k = static_cast<double>(g.degree(e.v)) - 1;
    // For undirected graphs include the edge in both orientations so the
    // correlation is symmetric.
    s_jk += j * k;
    s_j += j;
    s_k += k;
    s_j2 += j * j;
    s_k2 += k * k;
    ++m;
    if (!g.directed()) {
      s_jk += k * j;
      s_j += k;
      s_k += j;
      s_j2 += k * k;
      s_k2 += j * j;
      ++m;
    }
  }
  if (m == 0) return 0;
  const double im = 1.0 / static_cast<double>(m);
  const double num = im * s_jk - (im * s_j) * (im * s_k);
  const double den = std::sqrt((im * s_j2 - (im * s_j) * (im * s_j)) *
                               (im * s_k2 - (im * s_k) * (im * s_k)));
  return den == 0 ? 0 : num / den;
}

std::vector<double> average_neighbor_connectivity(const CSRGraph& g) {
  const eid_t dmax = g.max_degree();
  std::vector<double> sum(static_cast<std::size_t>(dmax) + 1, 0.0);
  std::vector<eid_t> cnt(static_cast<std::size_t>(dmax) + 1, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const eid_t d = g.degree(v);
    if (d == 0) continue;
    double s = 0;
    for (vid_t u : g.neighbors(v)) s += static_cast<double>(g.degree(u));
    sum[static_cast<std::size_t>(d)] += s / static_cast<double>(d);
    ++cnt[static_cast<std::size_t>(d)];
  }
  std::vector<double> knn(static_cast<std::size_t>(dmax) + 1, 0.0);
  for (eid_t k = 0; k <= dmax; ++k) {
    if (cnt[static_cast<std::size_t>(k)] > 0)
      knn[static_cast<std::size_t>(k)] =
          sum[static_cast<std::size_t>(k)] /
          static_cast<double>(cnt[static_cast<std::size_t>(k)]);
  }
  return knn;
}

GraphSummary summarize(const CSRGraph& g, vid_t path_samples,
                       std::uint64_t seed) {
  GraphSummary s;
  s.n = g.num_vertices();
  s.m = g.num_edges();
  s.directed = g.directed();
  s.avg_degree = average_degree(g);
  s.max_degree = g.max_degree();
  if (!g.directed()) s.avg_clustering = average_clustering_coefficient(g);
  s.assortativity = assortativity_coefficient(g);
  const Components comps = connected_components(g);
  s.num_components = comps.count;
  const auto sizes = comps.sizes();
  s.giant_component_size =
      sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
  const PathLengthStats pls = sampled_path_length(g, path_samples, seed);
  s.approx_avg_path_length = pls.average;
  s.approx_diameter = pls.max_eccentricity;
  return s;
}

}  // namespace snap
