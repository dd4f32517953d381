/**
 * @file
 * The collection of NUMA nodes forming the tiered memory system.
 *
 * Tiers are disjoint sets of nodes ordered by rank from high
 * performance / low capacity (rank 0, DRAM) to low performance / high
 * capacity (PM). All nodes tagged with the same rank form one tier —
 * for the paper's two-tier machine that means all DRAM nodes form the
 * DRAM tier and all PM nodes form the PM tier, exactly as it defines.
 * Ranks without nodes are legal (they simply do not appear in
 * tierOrder()), so a two-tier machine remains expressible under a
 * three-tier timing table.
 */

#ifndef MCLOCK_SIM_MEMORY_SYSTEM_HH_
#define MCLOCK_SIM_MEMORY_SYSTEM_HH_

#include <memory>
#include <vector>

#include "base/types.hh"
#include "sim/node.hh"

namespace mclock {
namespace sim {

/** Declarative node description used by machine configs. */
struct NodeSpec
{
    TierRank tier;
    std::size_t bytes;

    bool operator==(const NodeSpec &) const = default;
};

/** Owns the nodes and answers tier-ordering queries. */
class MemorySystem
{
  public:
    explicit MemorySystem(const std::vector<NodeSpec> &specs);

    std::size_t numNodes() const { return nodes_.size(); }

    /** One past the highest physical address of any node's frames. */
    Paddr paddrEnd() const { return paddrEnd_; }

    Node &node(NodeId id);
    const Node &node(NodeId id) const;

    /** Node ids belonging to the tier at @p rank, in id order. */
    const std::vector<NodeId> &tier(TierRank rank) const;

    /** Number of tiers that actually have nodes. */
    std::size_t numTiers() const { return tierOrder_.size(); }

    /** Tier ranks present, ordered best-first (fastest tier first). */
    const std::vector<TierRank> &tierOrder() const { return tierOrder_; }

    /**
     * The next better (adjacent faster) tier than @p rank, if any.
     * Adjacency is over the tiers present, so node-less ranks are
     * skipped. @return true and sets @p out when a higher tier exists
     */
    bool higherTier(TierRank rank, TierRank &out) const;

    /** The next worse (adjacent slower) tier than @p rank, if any. */
    bool lowerTier(TierRank rank, TierRank &out) const;

    /** Total frames across a tier. */
    std::size_t tierFrames(TierRank rank) const;

    /** Total free frames across a tier. */
    std::size_t tierFreeFrames(TierRank rank) const;

    /**
     * Find a node in the tier at @p rank with a free frame, preferring
     * the one with the most free frames (a simple zone-balancing
     * stand-in).
     *
     * @param respectMin when true, only consider nodes whose free count
     *                    stays above their min watermark reserve
     * @return node id or kInvalidNode
     */
    NodeId pickNodeWithSpace(TierRank rank, bool respectMin) const;

    template <typename Fn>
    void
    forEachNode(Fn &&fn)
    {
        for (auto &n : nodes_)
            fn(*n);
    }

  private:
    std::vector<std::unique_ptr<Node>> nodes_;
    /** Indexed by tier rank; empty vectors for node-less ranks. */
    std::vector<std::vector<NodeId>> tierNodes_;
    std::vector<TierRank> tierOrder_;
    Paddr paddrEnd_ = 0;
};

}  // namespace sim
}  // namespace mclock

#endif  // MCLOCK_SIM_MEMORY_SYSTEM_HH_
