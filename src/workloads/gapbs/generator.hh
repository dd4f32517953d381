/**
 * @file
 * Synthetic graph generators (GAPBS's -g / -u options).
 *
 * Kronecker (RMAT) with the Graph500 parameters A=0.57, B=0.19, C=0.19
 * and uniform Erdos-Renyi-style generation, both producing 2^scale
 * vertices with an average (undirected) degree.
 */

#ifndef MCLOCK_WORKLOADS_GAPBS_GENERATOR_HH_
#define MCLOCK_WORKLOADS_GAPBS_GENERATOR_HH_

#include <cstddef>
#include <vector>

#include "base/rng.hh"
#include "workloads/gapbs/graph.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

/**
 * Kronecker (RMAT) edge list: 2^scale vertices, degree*2^scale edges.
 * Large lists are drawn in chunks on several host threads; the list and
 * @p rng's final state are those of one serial draw.
 */
EdgeList makeKroneckerEdges(unsigned scale, unsigned degree, Rng &rng);

/** Uniform random edge list with the same sizing. */
EdgeList makeUniformEdges(unsigned scale, unsigned degree, Rng &rng);

/**
 * Uniform random weights in [1, maxWeight] (GAPBS .wsg style), one per
 * edge of @p edges and in edge order.
 */
std::vector<Weight> assignWeights(const EdgeList &edges, Weight maxWeight,
                                  Rng &rng);

namespace detail {

/** Edges per chunk of the Kronecker draw. */
inline constexpr std::size_t kEdgesPerChunk = std::size_t{1} << 15;

/**
 * makeKroneckerEdges drawn on exactly @p parts threads (> 0), whatever
 * the host: the seam the part-count identity tests use. The threads
 * claim kEdgesPerChunk-edge chunks in turn (base::runChunks); each
 * chunk jumps a copy of @p rng to its first edge's draw (Rng::advance),
 * and the last chunk leaves @p rng where the serial draw ends.
 */
EdgeList kroneckerEdgesInParts(unsigned scale, unsigned degree, Rng &rng,
                               unsigned parts);

}  // namespace detail

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_GAPBS_GENERATOR_HH_
