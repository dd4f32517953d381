#include "sim/metrics.hh"

#include "base/logging.hh"

namespace mclock {
namespace sim {

void
Metrics::growWindows(std::size_t n)
{
    if (windows_.size() >= n)
        return;
    MetricsWindow empty;
    empty.tierAccesses.resize(numTiers_);
    windows_.resize(n, empty);
}

MetricsWindow &
Metrics::windowSlow(SimTime now)
{
    const std::size_t idx = static_cast<std::size_t>(now / windowLen_);
    growWindows(idx + 1);
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
    return tierLatencyTotals_.at(static_cast<std::size_t>(rank));
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
    MCLOCK_ASSERT(numTiers_ == other.numTiers_);
    growWindows(other.windows_.size());
    // Growing may have invalidated the cached current-window bounds.
    curWinEnd_ = 0;
    for (std::size_t i = 0; i < other.windows_.size(); ++i) {
        auto &dst = windows_[i];
        const auto &src = other.windows_[i];
        dst.accesses += src.accesses;
        dst.promotions += src.promotions;
        dst.demotions += src.demotions;
        dst.promotedReaccessed += src.promotedReaccessed;
        for (std::size_t t = 0; t < numTiers_; ++t)
            dst.tierAccesses[t] += src.tierAccesses[t];
    }
    for (std::size_t t = 0; t < numTiers_; ++t)
        tierLatencyTotals_[t] += other.tierLatencyTotals_[t];
    stats_.mergeFrom(other.stats_);
}

}  // namespace sim
}  // namespace mclock
