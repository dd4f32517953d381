#include "vm/memcg.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace mclock {

std::size_t
MemCgroup::chargedTotal() const
{
    std::size_t total = 0;
    for (std::size_t c : charges_)
        total += c;
    return total;
}

std::size_t
MemCgroup::maxPages(TierRank tier) const
{
    const auto t = static_cast<std::size_t>(tier);
    if (t >= limits_.maxPages.size())
        return std::numeric_limits<std::size_t>::max();
    return limits_.maxPages[t];
}

std::size_t
MemCgroup::lowPages(TierRank tier) const
{
    const auto t = static_cast<std::size_t>(tier);
    return t < limits_.lowPages.size() ? limits_.lowPages[t] : 0;
}

void
MemCgroup::charge(TierRank tier)
{
    const auto t = static_cast<std::size_t>(tier);
    if (t >= charges_.size())
        charges_.resize(t + 1, 0);
    ++charges_[t];
}

void
MemCgroup::uncharge(TierRank tier)
{
    const auto t = static_cast<std::size_t>(tier);
    if (t >= charges_.size() || charges_[t] == 0) {
        MCLOCK_FATAL("memcg %u (%s): uncharge underflow on tier %d",
                     unsigned(id_), name_.c_str(), tier);
    }
    --charges_[t];
}

void
MemCgroup::refillPromoteDeficit()
{
    const std::uint64_t quantum = limits_.promoteQuantum;
    if (quantum == 0)
        return;
    // Unused credit carries over, capped at one saved quantum so a
    // long-idle tenant cannot burst arbitrarily far past its rate.
    promoteDeficit_ = std::min(promoteDeficit_ + quantum, 2 * quantum);
}

bool
MemCgroup::consumePromoteCredit()
{
    if (limits_.promoteQuantum == 0)
        return true;
    if (promoteDeficit_ == 0)
        return false;
    --promoteDeficit_;
    return true;
}

SimTime
latencyP99(const LatencyHist &hist)
{
    std::uint64_t total = 0;
    for (const auto &[lat, count] : hist)
        total += count;
    if (total == 0)
        return 0;
    // Smallest latency L with CDF(L) >= 0.99: integer arithmetic only,
    // so the result is exact and platform-independent.
    const std::uint64_t need = (total * 99 + 99) / 100;  // ceil(0.99 n)
    std::uint64_t cum = 0;
    for (const auto &[lat, count] : hist) {
        cum += count;
        if (cum >= need)
            return lat;
    }
    return hist.rbegin()->first;
}

double
MemCgroup::meanLatency() const
{
    if (accesses_ == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &[lat, count] : latencyHist_)
        sum += static_cast<double>(lat) * static_cast<double>(count);
    return sum / static_cast<double>(accesses_);
}

MemCgroupManager::MemCgroupManager()
{
    groups_.push_back(nullptr);  // id 0: the root sentinel
}

MemCgroupId
MemCgroupManager::create(const std::string &name, MemCgroupLimits limits)
{
    owner_.assertHeld();
    const auto id = static_cast<MemCgroupId>(groups_.size());
    groups_.push_back(
        std::make_unique<MemCgroup>(id, name, std::move(limits)));
    return id;
}

void
MemCgroupManager::beginEpoch()
{
    owner_.assertHeld();
    for (std::size_t i = 1; i < groups_.size(); ++i)
        groups_[i]->refillPromoteDeficit();
}

void
MemCgroupManager::charge(MemCgroupId id, TierRank tier)
{
    if (MemCgroup *cg = find(id))
        cg->charge(tier);
}

void
MemCgroupManager::uncharge(MemCgroupId id, TierRank tier)
{
    if (MemCgroup *cg = find(id))
        cg->uncharge(tier);
}

void
MemCgroupManager::transfer(MemCgroupId id, TierRank from, TierRank to)
{
    if (MemCgroup *cg = find(id)) {
        cg->uncharge(from);
        cg->charge(to);
    }
}

bool
MemCgroupManager::withinMax(MemCgroupId id, TierRank tier) const
{
    const MemCgroup *cg = find(id);
    return !cg || cg->withinMax(tier);
}

bool
MemCgroupManager::lowProtected(MemCgroupId id, TierRank tier) const
{
    const MemCgroup *cg = find(id);
    return cg && cg->lowProtected(tier);
}

bool
MemCgroupManager::consumePromoteCredit(MemCgroupId id)
{
    MemCgroup *cg = find(id);
    return !cg || cg->consumePromoteCredit();
}

bool
MemCgroupManager::hasPromoteCredit(MemCgroupId id) const
{
    const MemCgroup *cg = find(id);
    return !cg || cg->hasPromoteCredit();
}

}  // namespace mclock
