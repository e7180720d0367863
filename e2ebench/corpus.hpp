#pragma once

// Benchmark instances with a SNAPB2 cache.
//
// Each instance is one generator call with a fixed seed, the generator
// seed of the repository's bench corpus (R-MAT: 4242 + scale; grid-road:
// 777).  Generation happens once per cache directory and is never timed:
// the benchmark times the SNAPB2 read that follows.

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "snap/gen/generators.hpp"
#include "snap/graph/csr_graph.hpp"
#include "snap/io/binary_io.hpp"

namespace e2e {

struct Instance {
  const char* name;
  snap::CSRGraph (*make)();
};

template <int kScale>
snap::CSRGraph make_rmat() {
  snap::gen::RmatParams p;
  p.scale = kScale;
  p.edge_factor = 8;
  p.seed = 4242 + kScale;
  return snap::gen::rmat(p);
}

template <int kSide>
snap::CSRGraph make_road() {
  return snap::gen::grid_road(kSide, kSide, 0.05, 0.05, 777);
}

/// R-MAT instances have m = 8n; grid-road ones are side x side.
inline constexpr Instance kInstances[] = {
    {"rmat16", make_rmat<16>},
    {"road-256", make_road<256>},
    // Smoke-test stand-ins for the two above.
    {"rmat12", make_rmat<12>},
    {"road-64", make_road<64>},
};

inline const Instance* find_instance(std::string_view name) {
  for (const Instance& i : kInstances)
    if (name == i.name) return &i;
  return nullptr;
}

/// Path of the cached instance, generating and writing it first on a miss.
/// The file is written under a temporary name and renamed, so an
/// interrupted run never leaves a truncated cache entry behind.
inline std::string ensure_cached(const Instance& inst, const std::string& dir) {
  const std::string path = dir + "/" + inst.name + ".snapb";
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(dir);
  const snap::CSRGraph g = inst.make();
  const std::string tmp = path + ".tmp";
  snap::io::write_binary(g, tmp);
  std::filesystem::rename(tmp, path);
  std::fprintf(stderr, "[corpus] generated %s (n=%lld m=%lld)\n", path.c_str(),
               static_cast<long long>(g.num_vertices()),
               static_cast<long long>(g.num_edges()));
  return path;
}

}  // namespace e2e
