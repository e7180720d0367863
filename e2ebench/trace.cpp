#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

// The innermost open span on this thread (its id), for automatic parents.
thread_local std::uint64_t tl_current = 0;

}  // namespace

const char* layer_name(Layer l) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "bench",     "io",        "graph",  "kernels", "centrality", "community",
      "partition", "stream",    "server", "http",    "util"};
  return kNames[static_cast<std::size_t>(l)];
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Buffer* Tracer::local_buffer() {
  // The cached buffer belongs to the tracer with the cached generation; a
  // later tracer (the next workload of `--workload all`) gets fresh ones.
  thread_local Buffer* buf = nullptr;
  thread_local std::uint64_t buf_generation = 0;
  if (buf == nullptr || buf_generation != generation_) {
    snap::sync::MutexLock lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf_generation = generation_;
  }
  return buf;
}

void Tracer::record(const Span& s) { local_buffer()->spans.push_back(s); }

std::vector<Span> Tracer::collect() const {
  snap::sync::MutexLock lk(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

Tracer* active_tracer() { return g_tracer.load(std::memory_order_acquire); }

void set_active_tracer(Tracer* t) {
  g_tracer.store(t, std::memory_order_release);
}

ScopedSpan::ScopedSpan(const char* name, Layer layer)
    : ScopedSpan(name, layer, tl_current) {}

ScopedSpan::ScopedSpan(const char* name, Layer layer, std::uint64_t parent)
    : tracer_(active_tracer()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  saved_current_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tl_current = saved_current_;
  tracer_->record(span_);
}

LayerTimes layer_times(const std::vector<Span>& spans, std::int64_t from_ns,
                       std::int64_t to_ns) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent != 0 && index.count(s.parent) != 0)
      children[s.parent].push_back(i);
    else if (s.start_ns >= from_ns && s.start_ns < to_ns)
      roots.push_back(i);
  }

  LayerTimes out;
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const std::size_t r : roots) {
    out.root_s += static_cast<double>(spans[r].end_ns - spans[r].start_ns) * 1e-9;
    stack.push_back(r);
    while (!stack.empty()) {
      const Span& s = spans[stack.back()];
      stack.pop_back();
      iv.clear();
      if (const auto it = children.find(s.id); it != children.end()) {
        for (const std::size_t c : it->second) {
          stack.push_back(c);
          const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
          const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
          if (hi > lo) iv.emplace_back(lo, hi);
        }
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t run_lo = 0;
      std::int64_t run_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
      const auto layer = static_cast<std::size_t>(s.layer);
      ++out.count[layer];
      out.self_s[layer] +=
          static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
  }
  return out;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const LayerTimes& window) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"layers\":[");
  for (std::size_t l = 0; l < kNumLayers; ++l)
    std::fprintf(f, "%s\"%s\"", l ? "," : "",
                 layer_name(static_cast<Layer>(l)));
  std::fprintf(f, "],\n\"window_self_s\":{");
  for (std::size_t l = 0; l < kNumLayers; ++l)
    std::fprintf(f, "%s\"%s\":%.9f", l ? "," : "",
                 layer_name(static_cast<Layer>(l)), window.self_s[l]);
  std::fprintf(f, "},\n\"window_root_s\":%.9f,\n\"spans\":[\n", window.root_s);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s[\"%s\",%u,%.3f,%.3f,%llu,%llu]", i ? ",\n" : "",
                 s.name, static_cast<unsigned>(s.layer),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
