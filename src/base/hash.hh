/**
 * @file
 * The simulator's one splitmix64 finaliser and one FNV-1a accumulator.
 * Seeds, YCSB keys, config hashes and unit fingerprints all derive
 * from them, so neither may change by a single bit.
 */

#ifndef MCLOCK_BASE_HASH_HH_
#define MCLOCK_BASE_HASH_HH_

#include <cstdint>
#include <string_view>

namespace mclock {

/** Output @p n (from 1) of the splitmix64 stream seeded with @p seed. */
constexpr std::uint64_t
splitmix64(std::uint64_t seed, std::uint64_t n = 1)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * n;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * 64-bit FNV-1a over a byte stream. Each step is a bijection of the
 * state, so changing one byte of a fixed-length input changes the value.
 */
class Fnv1a
{
  public:
    constexpr Fnv1a &
    byte(std::uint8_t c)
    {
        h_ = (h_ ^ c) * kPrime;
        return *this;
    }

    /**
     * @p v's eight bytes, least significant first. A zero byte's step
     * is a plain multiply, (h ^ 0) * p = h * p, and multiplication mod
     * 2^64 is associative, so six zero high bytes fold into one
     * multiply by p^6: the same value in one step instead of six.
     */
    constexpr Fnv1a &
    word(std::uint64_t v)
    {
        byte(static_cast<std::uint8_t>(v));
        byte(static_cast<std::uint8_t>(v >> 8));
        if (v >> 16 == 0) {
            h_ *= kPrimePow6;
            return *this;
        }
        for (int i = 2; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (i * 8)));
        return *this;
    }

    /** @p s's bytes, then a 0xff separator. */
    constexpr Fnv1a &
    field(std::string_view s)
    {
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
        return byte(0xff);
    }

    constexpr std::uint64_t value() const { return h_; }

  private:
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;
    static constexpr std::uint64_t kPrimePow6 =
        kPrime * kPrime * kPrime * kPrime * kPrime * kPrime;

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace mclock

#endif  // MCLOCK_BASE_HASH_HH_
