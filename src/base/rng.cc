#include "base/rng.hh"

#include "base/hash.hh"
#include "base/logging.hh"

namespace mclock {

Rng::Rng(std::uint64_t seed)
{
    for (std::uint64_t i = 0; i < 4; ++i)
        s_[i] = splitmix64(seed, i + 1);
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
