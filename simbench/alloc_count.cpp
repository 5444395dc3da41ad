#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

bool g_enabled = false;
simbench::AllocCounts g_counts;

void* counted_alloc(std::size_t n) {
  if (g_enabled) {
    ++g_counts.calls;
    g_counts.bytes += n;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_enabled) {
    ++g_counts.calls;
    g_counts.bytes += n;
  }
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace simbench {

void alloc_count_enable(bool on) { g_enabled = on; }
AllocCounts alloc_counts() { return g_counts; }

AllocScope::AllocScope() : start_(g_counts), was_on_(g_enabled) {
  g_enabled = true;
}
AllocScope::~AllocScope() { g_enabled = was_on_; }
AllocCounts AllocScope::counted() const {
  return {g_counts.calls - start_.calls, g_counts.bytes - start_.bytes};
}

}  // namespace simbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
