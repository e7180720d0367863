#pragma once

// The adjacency view: the read surface layout-generic kernels are written
// against.  Both CSRGraph (flat rows) and CompressedCSR (delta/varint rows)
// satisfy it, so a kernel templated on AdjacencyView has one implementation
// for every layout (Stanford SNAP writes its algorithms the same way, as
// templates over the graph classes).
//
// A view answers four sizes and visits one row at a time through an
// early-exit visitor: `for_each_neighbor_while(v, f)` calls f(u) for v's
// stored neighbors in order until f returns false.  A visitor that always
// returns true compiles to the plain row loop.  Layouts whose rows are
// contiguous vid_t arrays additionally expose them as spans
// (ContiguousRows), for kernels that index into the middle of a row.

#include <concepts>
#include <span>

#include "snap/graph/types.hpp"

namespace snap {

template <typename G>
concept AdjacencyView =
    requires(const G& g, vid_t v, bool (*visit)(vid_t)) {
      { g.num_vertices() } -> std::same_as<vid_t>;
      { g.num_arcs() } -> std::same_as<eid_t>;
      { g.directed() } -> std::same_as<bool>;
      { g.degree(v) } -> std::same_as<eid_t>;
      g.for_each_neighbor_while(v, visit);
    };

template <typename G>
concept ContiguousRows =
    AdjacencyView<G> && requires(const G& g, vid_t v) {
      { g.neighbors(v) } -> std::same_as<std::span<const vid_t>>;
    };

}  // namespace snap
