#include "sim/metrics.hh"

#include "base/logging.hh"

namespace mclock {
namespace sim {

void
Metrics::presizeTiers(std::size_t numTiers)
{
    numTiers_ = numTiers;
    if (tierLatencyTotals_.size() < numTiers)
        tierLatencyTotals_.resize(numTiers);
}

MetricsWindow &
Metrics::windowSlow(SimTime now)
{
    const std::size_t idx = static_cast<std::size_t>(now / windowLen_);
    if (windows_.size() <= idx) {
        windows_.resize(idx + 1);
        if (numTiers_ > 0) {
            for (auto &w : windows_) {
                if (w.tierAccesses.size() < numTiers_)
                    w.tierAccesses.resize(numTiers_);
            }
        }
    }
    curWinIdx_ = idx;
    curWinStart_ = static_cast<SimTime>(idx) * windowLen_;
    curWinEnd_ = curWinStart_ + windowLen_;
    return windows_[idx];
}

std::uint64_t
Metrics::totalAccesses() const
{
    std::uint64_t sum = 0;
    for (const auto &w : windows_)
        sum += w.accesses;
    return sum;
}

std::uint64_t
Metrics::totalReaccessed() const
{
    std::uint64_t sum = 0;
    for (const auto &w : windows_)
        sum += w.promotedReaccessed;
    return sum;
}

std::uint64_t
Metrics::totalTierAccesses(TierRank rank) const
{
    std::uint64_t sum = 0;
    for (const auto &w : windows_)
        sum += w.tierAccessCount(rank);
    return sum;
}

SimTime
Metrics::totalTierLatency(TierRank rank) const
{
    const auto idx = static_cast<std::size_t>(rank);
    return idx < tierLatencyTotals_.size() ? tierLatencyTotals_[idx] : 0;
}

void
Metrics::recordPromotion(SimTime now, Page *page)
{
    ++windowAt(now).promotions;
    page->setPromotedEpoch(round_);
}

void
Metrics::maybeRecordReaccess(SimTime now, Page *page)
{
    const std::uint64_t epoch = page->promotedEpoch();
    if (epoch == 0)
        return;
    if (round_ - epoch <= 1)
        ++windowAt(now).promotedReaccessed;
    page->setPromotedEpoch(0);
}

void
Metrics::mergeFrom(const Metrics &other)
{
    MCLOCK_ASSERT(windowLen_ == other.windowLen_);
    if (windows_.size() < other.windows_.size())
        windows_.resize(other.windows_.size());
    // Resizing may have invalidated the cached current-window bounds.
    curWinEnd_ = 0;
    for (std::size_t i = 0; i < other.windows_.size(); ++i) {
        auto &dst = windows_[i];
        const auto &src = other.windows_[i];
        dst.accesses += src.accesses;
        dst.promotions += src.promotions;
        dst.demotions += src.demotions;
        dst.promotedReaccessed += src.promotedReaccessed;
        if (dst.tierAccesses.size() < src.tierAccesses.size())
            dst.tierAccesses.resize(src.tierAccesses.size());
        for (std::size_t t = 0; t < src.tierAccesses.size(); ++t)
            dst.tierAccesses[t] += src.tierAccesses[t];
    }
    if (tierLatencyTotals_.size() < other.tierLatencyTotals_.size())
        tierLatencyTotals_.resize(other.tierLatencyTotals_.size());
    for (std::size_t t = 0; t < other.tierLatencyTotals_.size(); ++t)
        tierLatencyTotals_[t] += other.tierLatencyTotals_[t];
    stats_.mergeFrom(other.stats_);
}

}  // namespace sim
}  // namespace mclock
