/**
 * @file
 * LD_PRELOAD allocation counter for scripts/alloc_census.sh.
 *
 * Replaces every global `operator new` / `new[]`: each call is counted
 * with its size, then served by malloc(). The call's first kFrames
 * return addresses from the main executable on (backtrace(), the
 * counter's own frames dropped) name its bucket. At exit every bucket
 * is written to the file named by ALLOC_CENSUS_OUT, one line each:
 *
 *     <allocations> <bytes> <frame> ...
 *
 * where a frame is the return address as an offset into the main
 * executable (the address addr2line wants), or `-` for a frame in
 * another object. The target must be single-threaded; the counter
 * keeps no lock.
 */

#include <execinfo.h>
#include <link.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

constexpr int kFrames = 8;
/** Open-addressed bucket table; a census sees a few thousand. */
constexpr std::size_t kBuckets = std::size_t{1} << 16;

struct Bucket
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
    void *frames[kFrames] = {};
};

Bucket g_table[kBuckets];
std::uint64_t g_dropped = 0;
/** Set while the counter itself runs: backtrace() may allocate. */
bool g_inside = false;

/** The main executable's load bias and the span of its segments. */
struct MainImage
{
    std::uintptr_t bias = 0;
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;
};

int
findMain(dl_phdr_info *info, std::size_t, void *out)
{
    // The first object visited is the executable itself.
    auto *img = static_cast<MainImage *>(out);
    img->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD)
            continue;
        std::uintptr_t start = info->dlpi_addr + ph.p_vaddr;
        if (start < img->lo)
            img->lo = start;
        if (start + ph.p_memsz > img->hi)
            img->hi = start + ph.p_memsz;
    }
    return 1;
}

/** Found at the first count. */
MainImage g_main;

bool
inMain(void *frame)
{
    if (g_main.hi == 0)
        dl_iterate_phdr(findMain, &g_main);
    auto a = reinterpret_cast<std::uintptr_t>(frame);
    return a >= g_main.lo && a < g_main.hi;
}

std::size_t
hashFrames(void *const *frames)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < kFrames; ++i) {
        h ^= reinterpret_cast<std::uintptr_t>(frames[i]);
        h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
}

void
count(std::size_t n)
{
    if (g_inside)
        return;
    g_inside = true;
    // The counter's own frames come first: skip to the caller's.
    void *raw[kFrames + 8] = {};
    int got = backtrace(raw, kFrames + 8);
    int first = 0;
    while (first < got && !inMain(raw[first]))
        ++first;
    void *frames[kFrames] = {};
    for (int i = first; i < got && i - first < kFrames; ++i)
        frames[i - first] = raw[i];
    std::size_t at = hashFrames(frames) & (kBuckets - 1);
    for (std::size_t probe = 0; probe < kBuckets; ++probe) {
        Bucket &b = g_table[(at + probe) & (kBuckets - 1)];
        if (b.allocs == 0)
            std::memcpy(b.frames, frames, sizeof(frames));
        else if (std::memcmp(b.frames, frames, sizeof(frames)) != 0)
            continue;
        ++b.allocs;
        b.bytes += n;
        g_inside = false;
        return;
    }
    ++g_dropped;
    g_inside = false;
}

void *
allocate(std::size_t n)
{
    count(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    count(n);
    std::size_t a = static_cast<std::size_t>(al);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, a, n ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}

__attribute__((destructor)) void
dump()
{
    g_inside = true; // nothing below is counted
    const char *path = std::getenv("ALLOC_CENSUS_OUT");
    if (!path)
        return;
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        return;
    for (const Bucket &b : g_table) {
        if (b.allocs == 0)
            continue;
        std::fprintf(f, "%llu %llu", (unsigned long long)b.allocs,
                     (unsigned long long)b.bytes);
        for (void *fr : b.frames) {
            auto a = reinterpret_cast<std::uintptr_t>(fr);
            if (fr && inMain(fr))
                std::fprintf(f, " 0x%llx",
                             (unsigned long long)(a - g_main.bias));
            else
                std::fprintf(f, " -");
        }
        std::fputc('\n', f);
    }
    if (g_dropped)
        std::fprintf(f, "%llu 0 dropped\n", (unsigned long long)g_dropped);
    std::fclose(f);
}

} // namespace

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    count(n);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    count(n);
    return std::malloc(n ? n : 1);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
