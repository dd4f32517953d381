/**
 * @file
 * CSR graph over simulated memory (the GAP Benchmark Suite substrate).
 *
 * The graph is stored exactly as GAPBS stores it: an offsets array
 * (n+1), a packed neighbor array (m entries), and, for weighted graphs,
 * a parallel weights array. All kernel-visible reads go through the
 * simulator; host-side peeks exist only for verification.
 */

#ifndef MCLOCK_WORKLOADS_GAPBS_GRAPH_HH_
#define MCLOCK_WORKLOADS_GAPBS_GRAPH_HH_

#include <cstdint>

#include "workloads/instrumented_array.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

/** Vertex identifier. */
using GNode = std::uint32_t;

/** Edge weight. */
using Weight = std::uint32_t;

/** One directed edge of an edge list. */
struct Edge
{
    GNode u;
    GNode v;
    Weight w = 1;
};

/** Instrumented CSR graph. */
class Graph
{
  public:
    Graph() = default;

    std::size_t numVertices() const { return numVertices_; }
    /** Directed CSR entries (2x the undirected edge count). */
    std::size_t numEdges() const { return numEdges_; }
    bool weighted() const { return weights_.allocated(); }

    /** Simulated read of offsets[u]. */
    std::uint64_t
    offset(GNode u)
    {
        return offsets_.get(u);
    }

    /** Simulated read of the neighbor at CSR position @p e. */
    GNode
    neighbor(std::uint64_t e)
    {
        return neighbors_.get(static_cast<std::size_t>(e));
    }

    /** Simulated read of the weight at CSR position @p e. */
    Weight
    weight(std::uint64_t e)
    {
        return weights_.get(static_cast<std::size_t>(e));
    }

    /** Host-side degree (no simulated access); for setup/verification. */
    std::uint64_t
    peekDegree(GNode u) const
    {
        return offsets_.peek(u + 1) - offsets_.peek(u);
    }

    std::uint64_t peekOffset(GNode u) const { return offsets_.peek(u); }
    GNode
    peekNeighbor(std::uint64_t e) const
    {
        return neighbors_.peek(static_cast<std::size_t>(e));
    }
    Weight
    peekWeight(std::uint64_t e) const
    {
        return weights_.peek(static_cast<std::size_t>(e));
    }

  private:
    friend class Builder;

    std::size_t numVertices_ = 0;
    std::size_t numEdges_ = 0;
    InstrumentedArray<std::uint64_t> offsets_;
    InstrumentedArray<GNode> neighbors_;
    InstrumentedArray<Weight> weights_;
};

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_GAPBS_GRAPH_HH_
