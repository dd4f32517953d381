/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator (workload generators, random
 * selection policies, samplers) draw from Rng so that every experiment is
 * reproducible from a single seed. The generator is xoshiro256**, which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef MCLOCK_BASE_RNG_HH_
#define MCLOCK_BASE_RNG_HH_

#include <bit>
#include <cstdint>

namespace mclock {

/** xoshiro256** pseudo-random generator with splitmix64 seeding. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value (one xoshiro256** step). */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        step(s_);
        return result;
    }

    /**
     * Move forward by exactly @p n draws, as @p n next64() calls would,
     * in O(log n) polynomial steps plus one 256-step sum. Lets a stream
     * be split into parts that start where the serial draw would.
     */
    void advance(std::uint64_t n);

    /** Uniform value in [0, bound) without modulo bias (bound > 0). */
    std::uint64_t nextRange(std::uint64_t bound);

    /**
     * Uniform double in [0, 1): exactly (next64() >> 11) * 2^-53, so a
     * caller may compare the raw 53-bit draw against integer thresholds
     * instead (see makeKroneckerEdges).
     */
    double
    nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Fork a statistically independent child generator. Used to give each
     * workload phase its own stream while preserving determinism.
     */
    Rng fork();

  private:
    /** The xoshiro256 state transition (linear over GF(2)). */
    static void
    step(std::uint64_t (&s)[4])
    {
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = std::rotl(s[3], 45);
    }

    std::uint64_t s_[4];
};

}  // namespace mclock

#endif  // MCLOCK_BASE_RNG_HH_
