// Fixture: must produce NO [exec-path] findings.  Kernels take the shared
// selector; enums that only partly overlap it, and look-alikes in comments
// and strings, are fine.
#include <cstdint>

namespace snap {
enum class ExecPath;  // opaque declaration: no enumerator list
}

namespace fixture {

// enum class Old { kAuto, kSerial, kParallel } — prose, not code.
const char* doc() { return "enum class Old { kAuto, kSerial, kParallel };"; }

enum class Mode { kAuto, kExact };
enum class Layout : std::uint8_t { kSerialized, kParallelArrays };

struct SweepParams {
  snap::ExecPath* path = nullptr;
  Mode mode = Mode::kAuto;
};

}  // namespace fixture
