#ifndef INDBML_COMMON_MEMORY_TRACKER_H_
#define INDBML_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace indbml {

/// \brief Process-wide accounting of the library's large allocations.
///
/// Columns, hash tables, tensors and device arenas report their
/// allocations here, which lets the Table-3 benchmark report the peak
/// memory of each inference approach without relying on RSS (noisy and
/// allocator-dependent). `ResetPeak()` is called between measurements.
class MemoryTracker {
 public:
  static MemoryTracker& Global();

  void Allocate(int64_t bytes) {
    int64_t cur = current_.fetch_add(bytes) + bytes;
    int64_t peak = peak_.load();
    while (cur > peak && !peak_.compare_exchange_weak(peak, cur)) {
    }
  }

  void Free(int64_t bytes) { current_.fetch_sub(bytes); }

  int64_t current_bytes() const { return current_.load(); }
  int64_t peak_bytes() const { return peak_.load(); }

  /// Resets the peak to the current level (call before a measurement).
  void ResetPeak() { peak_.store(current_.load()); }

 private:
  /// lock-free: current_ is a plain counter; peak_ advances via a CAS loop
  /// against the post-add level, so racing Allocate() calls cannot lose a
  /// high-water mark. ResetPeak() is only meaningful between measurements
  /// (quiescent point), not under concurrent allocation.
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

/// RAII accounting for a block of `bytes` tracked memory.
class ScopedTracked {
 public:
  explicit ScopedTracked(int64_t bytes) : bytes_(bytes) {
    MemoryTracker::Global().Allocate(bytes_);
  }
  ~ScopedTracked() { MemoryTracker::Global().Free(bytes_); }

  ScopedTracked(const ScopedTracked&) = delete;
  ScopedTracked& operator=(const ScopedTracked&) = delete;

 private:
  int64_t bytes_;
};

/// \brief A changing byte count reported to the global MemoryTracker, e.g.
/// the arrays an operator keeps: Set moves the reported total to `bytes`,
/// destruction frees it.
class TrackedBytes {
 public:
  TrackedBytes() = default;
  ~TrackedBytes() { MemoryTracker::Global().Free(bytes_); }

  TrackedBytes(const TrackedBytes&) = delete;
  TrackedBytes& operator=(const TrackedBytes&) = delete;

  void Set(int64_t bytes) {
    if (bytes == bytes_) return;
    MemoryTracker::Global().Allocate(bytes - bytes_);
    bytes_ = bytes;
  }

 private:
  int64_t bytes_ = 0;
};

/// Bytes a vector holds allocated (its capacity, not its size).
template <typename T>
int64_t CapacityBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

/// Formats a byte count as a human-readable string ("1.4 GB").
std::string FormatBytes(int64_t bytes);

/// Reads the process resident-set size from /proc (Linux); 0 if unavailable.
/// Used as a cross-check next to the tracked peak in EXPERIMENTS.md.
int64_t ReadProcessRssBytes();

}  // namespace indbml

#endif  // INDBML_COMMON_MEMORY_TRACKER_H_
