// Global allocation counter for sim.allocs_per_event: replaces the global
// operator new/delete of the benchmark binary with counting wrappers over
// malloc/free (the benchmark's own copy of tests/alloc_hook.cc, so it
// depends on src/ alone). Relaxed atomics: threaded event lanes allocate
// concurrently, and the count is only read while every lane is parked.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<uint64_t> g_allocs{0};

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

void* Allocate(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateNoThrow(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace
}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, std::align_val_t a) {
  return perfbench::AllocateAligned(size, a);
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return perfbench::AllocateAligned(size, a);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::AllocateNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
