/**
 * @file
 * Edge-list to CSR builder (GAPBS BuilderBase).
 *
 * Construction happens host-side; the resulting arrays are then written
 * into simulated memory in allocation order (offsets, neighbors,
 * weights), which is the benchmark's load phase and determines which
 * pages are born in DRAM before the tier spills over.
 */

#ifndef MCLOCK_WORKLOADS_GAPBS_BUILDER_HH_
#define MCLOCK_WORKLOADS_GAPBS_BUILDER_HH_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "workloads/gapbs/graph.hh"

namespace mclock {

namespace sim {
class Simulator;
}

namespace workloads {
namespace gapbs {

/**
 * Builder options. Every graph is undirected: both directions of each
 * edge are inserted, and u==v edges are dropped.
 */
struct BuildOptions
{
    /** Sort each adjacency list ascending and drop duplicates (TC). */
    bool sortAndDedupNeighbors = false;
    /** Relabel vertices by decreasing degree (TC's preprocessing). */
    bool relabelByDegree = false;
    /** Materialise the weights array. */
    bool keepWeights = false;
};

/**
 * One plus the largest vertex id in @p edges (1 for no edges): the
 * vertex count GAPBS infers from an edge list. Long lists are scanned
 * in parts on several host threads.
 */
std::size_t vertexCount(const EdgeList &edges);

namespace detail {

/**
 * A CSR on the host, before it is materialised in simulated memory. Its
 * arrays are the host copies the graph's InstrumentedArrays adopt.
 */
struct Csr
{
    std::size_t n = 0;
    InstrumentedArray<std::uint64_t>::Host offsets;
    InstrumentedArray<GNode>::Host neighbors;
    InstrumentedArray<Weight>::Host weights;
};

/**
 * Builder::build's host work with its count and scatter split into
 * exactly @p parts (> 0), whatever the host: the seam the part-count
 * identity tests use. Every part count gives the same CSR.
 */
Csr buildCsr(EdgeList edges, const BuildOptions &opts,
             std::vector<Weight> weights, unsigned parts);

}  // namespace detail

/** Builds an instrumented CSR graph inside a simulator. */
class Builder
{
  public:
    /**
     * Build a Graph from @p edges with @p opts, allocating its arrays in
     * @p sim's address space and stream-initialising them. With
     * opts.keepWeights, @p weights holds one weight per edge, in edge
     * order (assignWeights); without it, @p weights must be empty.
     * Large graphs are counted and scattered on several host threads;
     * the simulated side runs on the calling thread alone.
     */
    static std::unique_ptr<Graph> build(sim::Simulator &sim,
                                        EdgeList edges,
                                        const BuildOptions &opts,
                                        std::vector<Weight> weights = {});
};

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_GAPBS_BUILDER_HH_
