#include "support/counting_heap.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace dsaudit::counting_heap {
namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_high{0};

// malloc's alignment, so the payload behind the header stays aligned for
// every type the unaligned operator new serves.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
static_assert(kHeader >= sizeof(std::size_t));

void* allocate(std::size_t n) noexcept {
  auto* base = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (base == nullptr) return nullptr;
  *reinterpret_cast<std::size_t*>(base) = n;
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t high = g_high.load(std::memory_order_relaxed);
  while (live > high &&
         !g_high.compare_exchange_weak(high, live, std::memory_order_relaxed)) {
  }
  return base + kHeader;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  g_live.fetch_sub(*reinterpret_cast<std::size_t*>(base),
                   std::memory_order_relaxed);
  std::free(base);
}

void* allocate_or_throw(std::size_t n) {
  void* p = allocate(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::size_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

std::size_t high_water_bytes() {
  return g_high.load(std::memory_order_relaxed);
}

void reset_high_water() {
  g_high.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace dsaudit::counting_heap

// The replaceable global forms. The over-aligned (std::align_val_t) forms
// keep the default implementation; nothing in the library over-aligns.
using dsaudit::counting_heap::allocate;
using dsaudit::counting_heap::allocate_or_throw;
using dsaudit::counting_heap::release;

void* operator new(std::size_t n) { return allocate_or_throw(n); }
void* operator new[](std::size_t n) { return allocate_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
