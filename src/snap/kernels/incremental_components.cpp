#include "snap/kernels/incremental_components.hpp"

#include "snap/debug/validate.hpp"

namespace snap {

IncrementalComponents::IncrementalComponents(const DynamicGraph& graph)
    : graph_(graph) {
  rebuild();
  rebuilds_ = 0;  // the initial build is not a "re"-build
}

void IncrementalComponents::on_insert(vid_t u, vid_t v) {
  if (!stale_) uf_.unite(u, v);
}

void IncrementalComponents::on_delete(vid_t u, vid_t v) {
  // A deletion only matters if the edge was intra-component (it always is,
  // trivially); whether it *splits* the component cannot be told from the
  // union-find alone, so conservatively invalidate.
  (void)u;
  (void)v;
  stale_ = true;
}

bool IncrementalComponents::connected(vid_t u, vid_t v) {
  if (stale_) rebuild();
  return uf_.connected(u, v);
}

vid_t IncrementalComponents::num_components() {
  if (stale_) rebuild();
  return static_cast<vid_t>(uf_.num_sets());
}

void IncrementalComponents::rebuild() {
  const vid_t n = graph_.num_vertices();
  uf_.reset(static_cast<std::size_t>(n));
  for (vid_t u = 0; u < n; ++u)
    for (const vid_t v : graph_.neighbors(u))
      if (u <= v || graph_.directed()) uf_.unite(u, v);
  stale_ = false;
  ++rebuilds_;
  SNAP_VALIDATE(uf_);
}

}  // namespace snap
