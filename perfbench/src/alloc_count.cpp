// Replaces the global allocation functions so the benchmark can count
// every heap allocation the program makes during a timed call, from
// outside the library. Counting is a relaxed atomic increment behind
// a flag; with the flag off the cost is one load.
#include "common.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gCalls{0};
std::atomic<std::uint64_t> gBytes{0};

void*
allocate(std::size_t n)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gCalls.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(n, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void*
allocateAligned(std::size_t n, std::align_val_t al)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gCalls.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(n, std::memory_order_relaxed);
    }
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded = (n + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

} // namespace

namespace perfbench {

void
setAllocCounting(bool on)
{
    gCounting.store(on, std::memory_order_relaxed);
}

AllocCounts
allocCounts()
{
    return AllocCounts{gCalls.load(std::memory_order_relaxed),
                       gBytes.load(std::memory_order_relaxed)};
}

} // namespace perfbench

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return allocate(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return allocate(n);
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
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
