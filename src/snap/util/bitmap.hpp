#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace snap {

/// Fixed-size bitmap with atomic test-and-set, used for lock-free visited
/// tracking in the level-synchronous BFS and related traversal kernels.
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(std::size_t bits) { resize(bits); }

  /// Size to `bits` and zero the active range.  Storage is kept when the new
  /// size fits the old allocation, so a pooled bitmap (e.g. a BfsEngine's
  /// frontier) can be reset every traversal without reallocating.
  void resize(std::size_t bits) {
    const std::size_t words = (bits + 63) / 64;
    if (words > words_.size())
      words_ = std::vector<std::atomic<std::uint64_t>>(words);
    bits_ = bits;
    clear();
  }

  /// Reset all bits to zero (not thread-safe vs. concurrent set()).
  void clear() {
    const std::size_t words = (bits_ + 63) / 64;
    for (std::size_t i = 0; i < words; ++i)
      words_[i].store(0, std::memory_order_relaxed);
  }

  void swap(AtomicBitmap& other) noexcept {
    std::swap(bits_, other.bits_);
    words_.swap(other.words_);
  }

  [[nodiscard]] std::size_t size() const { return bits_; }

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1u;
  }

  /// Atomically set bit i; returns true iff this call flipped it 0 -> 1.
  bool test_and_set(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t old =
        words_[i >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  void set(std::size_t i) {
    words_[i >> 6].fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
  }

  /// Set bit i when no other thread writes its 64-bit word concurrently
  /// (the caller owns a word-aligned range): a plain load/store pair
  /// instead of a locked read-modify-write.
  void set_owned(std::size_t i) {
    auto& w = words_[i >> 6];
    w.store(w.load(std::memory_order_relaxed) | (1ULL << (i & 63)),
            std::memory_order_relaxed);
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace snap
