#include "sim/memory_system.hh"

#include "base/logging.hh"

namespace mclock {
namespace sim {

namespace {

// Leave an unmapped gap between node physical ranges so stray-address
// bugs surface as assertions rather than aliasing another node. 4 GiB
// keeps every LLC tag of up to 64 nodes within 32 bits (mem/cache.hh).
constexpr Paddr kNodeGap = 1ull << 32;

}  // namespace

MemorySystem::MemorySystem(const std::vector<NodeSpec> &specs)
{
    MCLOCK_ASSERT(!specs.empty());
    Paddr base = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        const std::size_t frames = spec.bytes / kPageSize;
        MCLOCK_ASSERT(frames > 0 && frames * kPageSize <= kNodeGap);
        MCLOCK_ASSERT(spec.tier >= 0);
        nodes_.push_back(std::make_unique<Node>(
            static_cast<NodeId>(i), spec.tier, frames, base));
        paddrEnd_ = base + frames * kPageSize;
        if (tierNodes_.size() <= static_cast<std::size_t>(spec.tier))
            tierNodes_.resize(static_cast<std::size_t>(spec.tier) + 1);
        tierNodes_[static_cast<std::size_t>(spec.tier)].push_back(
            static_cast<NodeId>(i));
        base += kNodeGap;
    }
    for (std::size_t rank = 0; rank < tierNodes_.size(); ++rank) {
        if (!tierNodes_[rank].empty())
            tierOrder_.push_back(static_cast<TierRank>(rank));
    }
}

Node &
MemorySystem::node(NodeId id)
{
    MCLOCK_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
}

const Node &
MemorySystem::node(NodeId id) const
{
    MCLOCK_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return *nodes_[static_cast<std::size_t>(id)];
}

const std::vector<NodeId> &
MemorySystem::tier(TierRank rank) const
{
    static const std::vector<NodeId> kEmpty;
    if (rank < 0 || static_cast<std::size_t>(rank) >= tierNodes_.size())
        return kEmpty;
    return tierNodes_[static_cast<std::size_t>(rank)];
}

bool
MemorySystem::higherTier(TierRank rank, TierRank &out) const
{
    for (std::size_t i = 1; i < tierOrder_.size(); ++i) {
        if (tierOrder_[i] == rank) {
            out = tierOrder_[i - 1];
            return true;
        }
    }
    return false;
}

bool
MemorySystem::lowerTier(TierRank rank, TierRank &out) const
{
    for (std::size_t i = 0; i + 1 < tierOrder_.size(); ++i) {
        if (tierOrder_[i] == rank) {
            out = tierOrder_[i + 1];
            return true;
        }
    }
    return false;
}

std::size_t
MemorySystem::tierFrames(TierRank rank) const
{
    std::size_t total = 0;
    for (NodeId id : tier(rank))
        total += node(id).totalFrames();
    return total;
}

std::size_t
MemorySystem::tierFreeFrames(TierRank rank) const
{
    std::size_t total = 0;
    for (NodeId id : tier(rank))
        total += node(id).freeFrames();
    return total;
}

NodeId
MemorySystem::pickNodeWithSpace(TierRank rank, bool respectMin) const
{
    NodeId best = kInvalidNode;
    std::size_t bestFree = 0;
    for (NodeId id : tier(rank)) {
        const Node &n = node(id);
        const std::size_t reserve = respectMin ? n.watermarks().min : 0;
        const std::size_t free = n.freeFrames();
        if (free > reserve && free > bestFree) {
            best = id;
            bestFree = free;
        }
    }
    return best;
}

}  // namespace sim
}  // namespace mclock
