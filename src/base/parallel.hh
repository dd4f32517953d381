/**
 * @file
 * Split host-side work into contiguous parts, or into fixed chunks
 * claimed on demand, and run them on threads.
 *
 * Graph set-up (the Kronecker draw, the CSR count and scatter) holds no
 * simulated state, so it may spread over the host's cores. Every caller
 * writes each part's or chunk's results to a place fixed by its range
 * and the inputs alone, so the output does not depend on how many
 * threads ran or which thread took which chunk: the part count is an
 * execution width, like --jobs, and nothing to configure. Below a size
 * floor the work runs on the calling thread.
 */

#ifndef MCLOCK_BASE_PARALLEL_HH_
#define MCLOCK_BASE_PARALLEL_HH_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace mclock {
namespace base {

/** Fewest items a part is given before a second part is started. */
inline constexpr std::size_t kMinItemsPerPart = std::size_t{1} << 16;

/**
 * How many parts to split @p items into: one per kMinItemsPerPart
 * items, at least one, and at most the host's hardware threads and
 * @p maxParts.
 */
inline unsigned
partCount(std::size_t items, unsigned maxParts = ~0u)
{
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t wanted = items / kMinItemsPerPart;
    return static_cast<unsigned>(std::clamp<std::size_t>(
        wanted, 1, std::min(cpus, std::max(1u, maxParts))));
}

/** Half-open item range [begin, end) of one part. */
struct PartRange
{
    std::size_t begin;
    std::size_t end;
};

/**
 * Part @p p of @p items split into @p parts contiguous ranges whose
 * sizes differ by at most one; the ranges cover [0, items) in order.
 */
inline PartRange
partRange(std::size_t items, unsigned parts, unsigned p)
{
    const std::size_t base = items / parts, extra = items % parts;
    const std::size_t begin = base * p + std::min<std::size_t>(p, extra);
    return {begin, begin + base + (p < extra ? 1 : 0)};
}

/**
 * Run @p fn(p) for every part p in [0, @p parts): part 0 on the calling
 * thread, the others on threads joined before this returns. One part
 * starts no thread.
 */
template <typename Fn>
void
runParts(unsigned parts, const Fn &fn)
{
    // mclock-lint: thread-ok(host-only set-up parts, joined before runParts returns; each writes only its own part's outputs)
    std::vector<std::jthread> helpers;
    helpers.reserve(parts > 1 ? parts - 1 : 0);
    for (unsigned p = 1; p < parts; ++p)
        helpers.emplace_back([&fn, p] { fn(p); });
    fn(0u);
}

/**
 * Run @p fn(part, range) once for every chunk of [0, @p items) cut
 * into @p chunkItems-item ranges (the last one shorter), on at most
 * @p parts threads (runParts), part being the running thread's index.
 * Threads claim the chunks in order from one counter until none is
 * left, so a slow thread takes fewer of them instead of holding up the
 * rest. Which thread runs a chunk is not fixed, so @p fn's results may
 * depend on the range alone; each thread sees its chunks in ascending
 * order, so per-part state may carry work from one claim to the next.
 */
template <typename Fn>
void
runChunks(std::size_t items, std::size_t chunkItems, unsigned parts,
          const Fn &fn)
{
    const std::size_t chunks = (items + chunkItems - 1) / chunkItems;
    std::atomic<std::size_t> next{0};
    const auto threads = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(chunks, parts)));
    runParts(threads, [&](unsigned p) {
        for (std::size_t c = next.fetch_add(1); c < chunks;
             c = next.fetch_add(1)) {
            const std::size_t begin = c * chunkItems;
            fn(p, PartRange{begin, std::min(items, begin + chunkItems)});
        }
    });
}

}  // namespace base
}  // namespace mclock

#endif  // MCLOCK_BASE_PARALLEL_HH_
