#pragma once

// Span recorder for the traced run.
//
// Spans are recorded only by benchmark code, around each call into a
// layer's public function; nothing inside libsnap is instrumented.  A span
// has a name, a layer, a start, an end, its own id and the id of the span
// that caused it.  Nesting on one thread links parent and child
// automatically; a request crosses threads (client -> server worker), so
// the client tags it with its span id (`rid`) and the server-side span
// names that id as its parent, which joins the two into one tree.
//
// Each thread appends to a buffer of its own, so recording takes no lock
// after the thread's first span.  While no tracer is active a ScopedSpan
// costs one branch, which is what the untraced runs pay.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snap/util/sync.hpp"
#include "stats.hpp"

namespace e2e {

/// The layers a span can belong to: the repository's modules, plus `bench`
/// (the benchmark's own bookkeeping, such as rendering request bodies) and
/// `http` (a request as its client sees it; its self time is the transport
/// cost outside the handler).
enum class Layer : std::uint8_t {
  kBench,
  kIo,
  kGraph,
  kKernels,
  kCentrality,
  kCommunity,
  kPartition,
  kStream,
  kServer,
  kHttp,
  kUtil,
};
inline constexpr std::size_t kNumLayers = 11;

const char* layer_name(Layer l);

struct Span {
  const char* name = "";  ///< static string
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now_ns() const;
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& s);

  /// Every span recorded so far.  Call only after the recording threads
  /// have been joined.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* local_buffer();

  static inline std::atomic<std::uint64_t> generations_{0};
  const std::uint64_t generation_ = ++generations_;
  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable snap::sync::Mutex mu_;  // guards: buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
};

/// The tracer spans record into; null while tracing is off.
Tracer* active_tracer();
void set_active_tracer(Tracer* t);

/// Records one span for its lifetime into the active tracer, if any.
class ScopedSpan {
 public:
  /// Parent = the innermost open span on this thread.
  ScopedSpan(const char* name, Layer layer);
  /// Explicit parent (a span opened on another thread).
  ScopedSpan(const char* name, Layer layer, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id; 0 when tracing is off.
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Per-layer totals over the span trees rooted in [from_ns, to_ns).  A
/// span's self time is its duration minus the part of it that its
/// children cover, so the self times of one tree add up to its root's
/// duration.
struct LayerTimes {
  std::array<double, kNumLayers> self_s{};
  std::array<std::size_t, kNumLayers> count{};  ///< spans per layer
  double root_s = 0;  ///< summed root-span durations
};
LayerTimes layer_times(const std::vector<Span>& spans, std::int64_t from_ns,
                       std::int64_t to_ns);

/// Write the spans and the per-layer self times as one JSON document.
/// Spans are `[name, layer, start_us, end_us, id, parent]` rows.
bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const LayerTimes& window);

}  // namespace e2e
