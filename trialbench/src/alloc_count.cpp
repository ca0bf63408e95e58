// Replaceable global allocation functions that count per thread. Every
// form of operator new routes through counted_alloc; every form of
// operator delete frees with std::free (aligned forms included, since
// std::aligned_alloc memory is released with std::free).
#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Constant-initialised POD, so no TLS guard runs inside operator new.
thread_local trialbench::AllocTotals t_totals;

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    const std::size_t rounded = (n + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  }
  if (p != nullptr) {
    ++t_totals.count;
    t_totals.bytes += n;
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  void* p = counted_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace trialbench {

AllocTotals thread_alloc_totals() { return t_totals; }

}  // namespace trialbench

void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
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
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
