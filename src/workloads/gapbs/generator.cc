#include "workloads/gapbs/generator.hh"

#include <cmath>
#include <cstdint>

#include "base/logging.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

namespace {

/**
 * Smallest k with k * 2^-53 >= p, for p in [0, 1]. Since nextDouble()
 * is exactly (next64() >> 11) * 2^-53 and scaling by 2^53 is exact,
 * `nextDouble() < p` holds iff `(next64() >> 11) < rawThreshold(p)`.
 */
std::uint64_t
rawThreshold(double p)
{
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

}  // namespace

std::vector<Edge>
makeKroneckerEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    std::vector<Edge> edges;
    edges.reserve(m);
    // Graph500 RMAT quadrant probabilities. A draw r picks quadrant
    // (0,0) if r < a, (0,1) if r < a+b, (1,0) if r < a+b+c, else (1,1);
    // the integer thresholds make the same choice bit for bit.
    const double a = 0.57, b = 0.19, c = 0.19;
    const std::uint64_t tA = rawThreshold(a);
    const std::uint64_t tAB = rawThreshold(a + b);
    const std::uint64_t tABC = rawThreshold(a + b + c);
    for (std::size_t i = 0; i < m; ++i) {
        GNode u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const std::uint64_t k = rng.next64() >> 11;
            const GNode geA = k >= tA;
            const GNode geAB = k >= tAB;
            const GNode geABC = k >= tABC;
            // The thresholds nest: u is set in quadrants (1,0) and
            // (1,1), v in (0,1) and (1,1).
            u |= geAB << bit;
            v |= (geA ^ geAB ^ geABC) << bit;
        }
        edges.push_back({u, v, 1});
    }
    return edges;
}

std::vector<Edge>
makeUniformEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    std::vector<Edge> edges;
    edges.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        edges.push_back({static_cast<GNode>(rng.nextRange(n)),
                         static_cast<GNode>(rng.nextRange(n)), 1});
    }
    return edges;
}

void
assignWeights(std::vector<Edge> &edges, Weight maxWeight, Rng &rng)
{
    MCLOCK_ASSERT(maxWeight >= 1);
    for (auto &e : edges)
        e.w = static_cast<Weight>(1 + rng.nextRange(maxWeight));
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
