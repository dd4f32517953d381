#include "calibration.hh"

#include <numeric>
#include <thread>
#include <utility>

#include "spans.hh"

namespace perfbench {

namespace {

constexpr std::size_t kL2Bytes = std::size_t{2} << 20;
constexpr std::size_t kL3Bytes = std::size_t{8} << 20;
constexpr std::uint64_t kL2Steps = 1000000;
constexpr std::uint64_t kL3Steps = 150000;

volatile std::uint32_t sink;

/**
 * One cycle through every slot in a fixed pseudo-random order
 * (Sattolo's algorithm), so each step's load depends on the last.
 */
std::vector<std::uint32_t>
walkCycle(std::size_t bytes, std::uint64_t seed)
{
    std::vector<std::uint32_t> next(bytes / sizeof(std::uint32_t));
    std::iota(next.begin(), next.end(), 0u);
    std::uint64_t s = seed;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(next[i], next[(s >> 33) % i]);
    }
    return next;
}

std::uint32_t
walk(const std::vector<std::uint32_t> &next, std::uint32_t from,
     std::uint64_t steps)
{
    std::uint32_t i = from;
    for (std::uint64_t k = 0; k < steps; ++k)
        i = next[i];
    return i;
}

}  // namespace

Calibration::Calibration(unsigned width)
    : width_(width), l2_(walkCycle(kL2Bytes, 2)), l3_(walkCycle(kL3Bytes, 8))
{
}

double
Calibration::measureS() const
{
    // Threads start at different slots so they do not walk in step.
    std::vector<std::uint32_t> ends(width_);
    const auto body = [this, &ends](unsigned t) {
        const std::uint32_t from = t * 7919u;
        ends[t] = walk(l2_, from, kL2Steps) ^ walk(l3_, from, kL3Steps);
    };
    const std::int64_t t0 = hostNowNs();
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < width_; ++t)
        threads.emplace_back(body, t);
    body(0);
    for (auto &th : threads)
        th.join();
    const std::int64_t t1 = hostNowNs();
    for (const std::uint32_t e : ends)
        sink = e;  // keeps the walks observable
    return static_cast<double>(t1 - t0) / 1e9;
}

}  // namespace perfbench
