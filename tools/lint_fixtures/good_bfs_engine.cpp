// Fixture: must produce NO [bfs-engine] findings.  Declaring, holding,
// copying and passing a BFSResult the one engine produced is fine; only
// defining a function that returns one is reserved.
namespace snap {

struct BFSResult {
  long num_visited = 0;
};
class CSRGraph;

BFSResult bfs(const CSRGraph& g, long source);  // declaration only

// BFSResult bfs_copy(const CSRGraph& g) { return {}; } — prose, not code.
const char* doc() { return "BFSResult bfs_copy(int) { return {}; }"; }

long visited(const CSRGraph& g) {
  const BFSResult r = bfs(g, 0);
  BFSResult copy(r);
  return copy.num_visited;
}

}  // namespace snap
