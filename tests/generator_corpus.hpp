#pragma once

// The generator corpus that layout and kernel tests run over: one instance
// of every generator family, three adversarial degree shapes (one huge row,
// all-tiny rows, empty rows), an edgeless graph and a directed R-MAT.

#include <string>
#include <utility>
#include <vector>

#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"

namespace snap::test {

inline std::vector<std::pair<std::string, CSRGraph>> generator_corpus() {
  std::vector<std::pair<std::string, CSRGraph>> out;
  gen::RmatParams rp;
  rp.scale = 11;
  rp.edge_factor = 8;
  rp.seed = 5;
  out.emplace_back("rmat", gen::rmat(rp));
  out.emplace_back("erdos_renyi", gen::erdos_renyi(3000, 15000, false, 6));
  out.emplace_back("grid_road", gen::grid_road(50, 60, 0.05, 0.05, 7));
  out.emplace_back("watts_strogatz", gen::watts_strogatz(2000, 8, 0.1, 8));
  out.emplace_back("planted_partition",
                   gen::planted_partition(2500, 25, 8.0, 2.0, 9));
  out.emplace_back("barabasi_albert", gen::barabasi_albert(2000, 4, 10));
  // Adversarial degree shapes: one huge row, all-tiny rows, empty rows.
  out.emplace_back("star", gen::star_graph(5000));
  out.emplace_back("path", gen::path_graph(1000));
  out.emplace_back("isolated",
                   CSRGraph::from_edges(100, {{0, 99, 1.0}}, false));
  out.emplace_back("empty", CSRGraph::from_edges(50, {}, false));
  // Directed: asymmetric adjacency, including back-edges (negative deltas
  // after the first neighbor never happen on sorted rows, but the first
  // delta w - v is frequently negative).
  out.emplace_back("rmat_directed", [] {
    gen::RmatParams p;
    p.scale = 10;
    p.edge_factor = 6;
    p.directed = true;
    p.seed = 11;
    return gen::rmat(p);
  }());
  return out;
}

}  // namespace snap::test
