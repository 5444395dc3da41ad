// Counting global allocator for the benchmark binaries. Every
// `operator new` in the process goes through alloc_count.cpp; while
// counting is enabled it tallies calls and requested bytes. The
// simulator is single-threaded, so plain counters suffice.
#pragma once

#include <cstdint>

namespace simbench {

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Turns counting on or off (off at start-up).
void alloc_count_enable(bool on);
/// Counts accumulated since start-up while counting was enabled.
AllocCounts alloc_counts();

/// Scoped counter: enables counting on construction and reports the
/// allocations made since then; restores the previous state on exit.
class AllocScope {
 public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  [[nodiscard]] AllocCounts counted() const;

 private:
  AllocCounts start_;
  bool was_on_;
};

}  // namespace simbench
