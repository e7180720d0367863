// Fixture: a BFS defined outside snap/kernels/{bfs.cpp,frontier.*} must
// trigger [bfs-engine] — every BFS entry point instantiates the one
// BfsEngine level loop.
#include <vector>

namespace snap {

struct BFSResult {
  std::vector<long> dist;
};
class CompressedCSR;

BFSResult bfs_private(const CompressedCSR& g,  // finding: a second engine
                      long source) {
  (void)g;
  (void)source;
  return {};
}

auto bfs_trailing(long source) -> BFSResult {  // finding: same, trailing
  (void)source;
  return {};
}

}  // namespace snap
