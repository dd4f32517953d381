#include "workloads/gapbs/generator.hh"

#include <cmath>
#include <cstdint>

#include "base/logging.hh"
#include "base/parallel.hh"

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

EdgeList
makeKroneckerEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t m = (std::size_t{1} << scale) * degree;
    return detail::kroneckerEdgesInParts(scale, degree, rng,
                                         base::partCount(m));
}

namespace detail {

EdgeList
kroneckerEdgesInParts(unsigned scale, unsigned degree, Rng &rng,
                      unsigned parts)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    MCLOCK_ASSERT(parts > 0);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    // Unwritten until its chunk is drawn: each chunk first-touches its
    // own pages.
    EdgeList edges(m);
    // Graph500 RMAT quadrant probabilities. A draw r picks quadrant
    // (0,0) if r < a, (0,1) if r < a+b, (1,0) if r < a+b+c, else (1,1);
    // the integer thresholds make the same choice bit for bit.
    const double a = 0.57, b = 0.19, c = 0.19;
    const std::uint64_t tA = rawThreshold(a);
    const std::uint64_t tAB = rawThreshold(a + b);
    const std::uint64_t tABC = rawThreshold(a + b + c);
    // Every edge takes exactly `scale` draws, so the chunk starting at
    // edge i starts i * scale draws into the serial stream. Each thread
    // keeps its stream where its last chunk ended and jumps only over
    // the chunks other threads drew in between. One host line per
    // cursor, so threads never write to a shared line.
    struct alignas(64) Cursor
    {
        Rng rng;
        std::size_t edge = 0;  ///< first edge not yet drawn from rng
    };
    std::vector<Cursor> cursors(parts, Cursor{rng});
    base::runChunks(m, kEdgesPerChunk, parts,
                    [&](unsigned p, base::PartRange range) {
        Cursor &cur = cursors[p];
        MCLOCK_ASSERT(range.begin >= cur.edge);
        Rng local = cur.rng;
        local.advance((range.begin - cur.edge) * scale);
        for (std::size_t i = range.begin; i < range.end; ++i) {
            GNode u = 0, v = 0;
            for (unsigned bit = 0; bit < scale; ++bit) {
                const std::uint64_t k = local.next64() >> 11;
                const GNode geA = k >= tA;
                const GNode geAB = k >= tAB;
                const GNode geABC = k >= tABC;
                // The thresholds nest: u is set in quadrants (1,0) and
                // (1,1), v in (0,1) and (1,1).
                u |= geAB << bit;
                v |= (geA ^ geAB ^ geABC) << bit;
            }
            edges[i] = {u, v};
        }
        cur = {local, range.end};
        // The last chunk ends where the serial draw ends.
        if (range.end == m)
            rng = local;
    });
    return edges;
}

}  // namespace detail

EdgeList
makeUniformEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    EdgeList edges;
    edges.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        edges.push_back({static_cast<GNode>(rng.nextRange(n)),
                         static_cast<GNode>(rng.nextRange(n))});
    }
    return edges;
}

std::vector<Weight>
assignWeights(const EdgeList &edges, Weight maxWeight, Rng &rng)
{
    MCLOCK_ASSERT(maxWeight >= 1);
    std::vector<Weight> weights(edges.size());
    for (auto &w : weights)
        w = static_cast<Weight>(1 + rng.nextRange(maxWeight));
    return weights;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
