#include "snap/graph/compressed_csr.hpp"

#include <cstddef>

#include "snap/util/parallel.hpp"

namespace snap {

CompressedCSR CompressedCSR::from_graph(const CSRGraph& g) {
  CompressedCSR c;
  c.n_ = g.num_vertices();
  c.arcs_ = g.num_arcs();
  c.directed_ = g.directed();
  const auto n = static_cast<std::size_t>(c.n_);

  // Pass 1: exact byte length of every vertex's block.
  std::vector<std::uint64_t> lengths(n, 0);
  parallel::parallel_for_dynamic(c.n_, [&](vid_t v) {
    const auto nb = g.neighbors(v);
    std::uint64_t len = detail::varint_length(nb.size());
    std::int64_t prev = v;
    for (const vid_t w : nb) {
      len += detail::varint_length(detail::zigzag_encode(w - prev));
      prev = w;
    }
    lengths[static_cast<std::size_t>(v)] = len;
  });
  parallel::exclusive_prefix_sum(lengths, c.offsets_);

  // Pass 2: encode each block into its disjoint slice — output position is
  // precomputed, so the buffer is byte-identical at every thread count.
  c.bytes_.resize(static_cast<std::size_t>(c.offsets_[n]));
  parallel::parallel_for_dynamic(c.n_, [&](vid_t v) {
    const auto nb = g.neighbors(v);
    std::uint8_t* out =
        c.bytes_.data() + c.offsets_[static_cast<std::size_t>(v)];
    out = detail::varint_write(out, nb.size());
    std::int64_t prev = v;
    for (const vid_t w : nb) {
      out = detail::varint_write(out, detail::zigzag_encode(w - prev));
      prev = w;
    }
    SNAP_DCHECK(out == c.bytes_.data() +
                           c.offsets_[static_cast<std::size_t>(v) + 1],
                "CompressedCSR: encoded length of vertex ", v,
                " disagrees with pass-1 length");
  });
  return c;
}

}  // namespace snap
