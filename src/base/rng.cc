#include "base/rng.hh"

#include <array>
#include <bit>
#include <vector>

#include "base/hash.hh"
#include "base/logging.hh"

namespace mclock {

namespace {

/** A polynomial over GF(2) of degree < 256; bit k is the x^k term. */
using Poly = std::array<std::uint64_t, 4>;

/** The same with degree < 512: a product of two Polys. */
using WidePoly = std::array<std::uint64_t, 8>;

/** Stream length Berlekamp-Massey needs for a 256-bit linear state. */
constexpr unsigned kSeqBits = 512;

/**
 * The characteristic polynomial P of the xoshiro256 transition T, found
 * by Berlekamp-Massey over kSeqBits outputs of one state bit. T has a
 * primitive polynomial of degree 256 (its period is 2^256 - 1), so any
 * nonzero state bit stream has exactly that minimal polynomial.
 * @return P's terms below x^256 (its x^256 term is implicit).
 */
template <typename StepFn>
Poly
findCharPoly(StepFn step)
{
    std::uint64_t s[4] = {splitmix64(1, 1), splitmix64(1, 2),
                          splitmix64(1, 3), splitmix64(1, 4)};
    std::vector<std::uint8_t> seq(kSeqBits);
    for (auto &bit : seq) {
        bit = s[0] & 1;
        step(s);
    }
    // Connection polynomial C(x) = 1 + c1 x + ... + cL x^L with
    // seq[j] = sum c_i seq[j - i] for every j >= L.
    std::vector<std::uint8_t> c(kSeqBits + 1, 0), b(kSeqBits + 1, 0);
    c[0] = b[0] = 1;
    unsigned len = 0, shift = 1;
    for (unsigned j = 0; j < kSeqBits; ++j) {
        std::uint8_t d = seq[j];
        for (unsigned i = 1; i <= len; ++i)
            d ^= c[i] & seq[j - i];
        if (d == 0) {
            ++shift;
            continue;
        }
        const std::vector<std::uint8_t> prev = c;
        for (unsigned i = 0; i + shift <= kSeqBits; ++i)
            c[i + shift] ^= b[i];
        if (2 * len <= j) {
            len = j + 1 - len;
            b = prev;
            shift = 1;
        } else {
            ++shift;
        }
    }
    MCLOCK_ASSERT(len == 256, "xoshiro256 stream has linear complexity %u",
                  len);
    // P(x) = x^L C(1/x): the x^k term of P is c_{L-k}.
    Poly p{};
    for (unsigned k = 0; k < 256; ++k)
        p[k / 64] |= std::uint64_t{c[256 - k]} << (k % 64);
    return p;
}

/** @p w mod P, for @p w of degree < 512. */
Poly
reduce(WidePoly w, const Poly &p)
{
    for (unsigned i = 511; i >= 256; --i) {
        if (!((w[i / 64] >> (i % 64)) & 1))
            continue;
        // Subtract x^(i-256) P: clears bit i, folds the low terms in.
        w[i / 64] ^= std::uint64_t{1} << (i % 64);
        const unsigned q = (i - 256) / 64, r = (i - 256) % 64;
        for (unsigned j = 0; j < 4; ++j) {
            w[j + q] ^= p[j] << r;
            if (r != 0)
                w[j + q + 1] ^= p[j] >> (64 - r);
        }
    }
    return {w[0], w[1], w[2], w[3]};
}

/** @p a squared mod P (squaring over GF(2) spreads the bits apart). */
Poly
squareMod(const Poly &a, const Poly &p)
{
    const auto spread = [](std::uint32_t x) {
        std::uint64_t v = x;
        v = (v | (v << 16)) & 0x0000ffff0000ffffull;
        v = (v | (v << 8)) & 0x00ff00ff00ff00ffull;
        v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0full;
        v = (v | (v << 2)) & 0x3333333333333333ull;
        v = (v | (v << 1)) & 0x5555555555555555ull;
        return v;
    };
    WidePoly w{};
    for (unsigned j = 0; j < 4; ++j) {
        w[2 * j] = spread(static_cast<std::uint32_t>(a[j]));
        w[2 * j + 1] = spread(static_cast<std::uint32_t>(a[j] >> 32));
    }
    return reduce(w, p);
}

/** @p a times x mod P. */
Poly
timesXMod(const Poly &a, const Poly &p)
{
    const bool carry = a[3] >> 63;
    Poly r{a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
           (a[3] << 1) | (a[2] >> 63)};
    if (carry) {
        for (unsigned j = 0; j < 4; ++j)
            r[j] ^= p[j];
    }
    return r;
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    for (std::uint64_t i = 0; i < 4; ++i)
        s_[i] = splitmix64(seed, i + 1);
}

void
Rng::advance(std::uint64_t n)
{
    if (n == 0)
        return;
    static const Poly p =
        findCharPoly([](std::uint64_t (&s)[4]) { step(s); });
    // T^n = r(T) for r = x^n mod P (Cayley-Hamilton); find r by
    // square-and-multiply from n's top bit down.
    Poly r{1, 0, 0, 0};
    for (int bit = std::bit_width(n) - 1; bit >= 0; --bit) {
        r = squareMod(r, p);
        if ((n >> bit) & 1)
            r = timesXMod(r, p);
    }
    // r(T) s by Horner: acc = T acc + r_k s, from the top term down.
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (int k = 255; k >= 0; --k) {
        step(acc);
        if ((r[k / 64] >> (k % 64)) & 1) {
            for (unsigned j = 0; j < 4; ++j)
                acc[j] ^= s_[j];
        }
    }
    for (unsigned j = 0; j < 4; ++j)
        s_[j] = acc[j];
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
