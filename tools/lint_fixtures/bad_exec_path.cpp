// Fixture: a private serial/parallel engine selector outside
// snap/graph/types.hpp must trigger [exec-path] — kernels share the one
// snap::ExecPath and parallel::use_parallel.
#include <cstdint>

namespace fixture {

enum class SweepPath : std::uint8_t {  // finding: re-declared selector
  kAuto,
  kSerial,
  kParallel,
  kVectorized,  // extra engines do not hide the copy
};

struct SweepParams {
  SweepPath path = SweepPath::kAuto;
};

}  // namespace fixture
