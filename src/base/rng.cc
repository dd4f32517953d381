#include "base/rng.hh"

#include "base/logging.hh"

namespace mclock {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::nextRange(std::uint64_t bound)
{
    MCLOCK_ASSERT(bound > 0);
    // Lemire's nearly-divisionless method degenerates to 128-bit multiply;
    // a simple rejection loop is sufficient and unbiased.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

Rng
Rng::fork()
{
    return Rng(next64());
}

}  // namespace mclock
