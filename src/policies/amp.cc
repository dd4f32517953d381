#include "policies/amp.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "pfra/lru_lists.hh"
#include "pfra/vmscan.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace policies {

AmpPolicy::AmpPolicy(AmpMode mode, const PolicyOptions &opts)
    : mode_(mode), scanInterval_(opts.scanInterval)
{
}

const char *
AmpPolicy::name() const
{
    switch (mode_) {
      case AmpMode::Lru: return "amp-lru";
      case AmpMode::Lfu: return "amp-lfu";
      case AmpMode::Random: return "amp-random";
    }
    return "amp";
}

void
AmpPolicy::attach(sim::Simulator &sim)
{
    TieringPolicy::attach(sim);
    sim.daemons().add("amp_scan", scanInterval_,
                      [this](SimTime now) { tick(now); });
}

void
AmpPolicy::tick(SimTime now)
{
    auto &mem = sim_->memory();
    auto &space = sim_->space();
    sim_->vmstat().add(stats::VmItem::KpromotedWake);
    sim_->trace().record(stats::TraceEventType::KpromotedWake,
                         kInvalidNode, 0, 0);
    sim_->metrics().beginPromotionRound();

    // Full profiling pass: AMP scans every page of both tiers. Collect
    // lower-tier candidates and score them by the selection mode.
    std::vector<Page *> candidates;
    std::uint64_t scanned = 0;
    space.forEachPage([&](Page *pg) {
        ++scanned;
        if (!pg->resident() || !pg->onLru() || pg->unevictable() ||
            pg->locked()) {
            return;
        }
        // Any page below the top tier is a promotion candidate.
        TierRank up;
        if (mem.higherTier(mem.node(pg->node()).tier(), up))
            candidates.push_back(pg);
    });
    sim_->chargeScan(scanned);

    switch (mode_) {
      case AmpMode::Lru:
        std::sort(candidates.begin(), candidates.end(),
                  [](const Page *a, const Page *b) {
                      return a->lastAccess() > b->lastAccess();
                  });
        break;
      case AmpMode::Lfu:
        std::sort(candidates.begin(), candidates.end(),
                  [](const Page *a, const Page *b) {
                      return a->accessCount() > b->accessCount();
                  });
        break;
      case AmpMode::Random:
        for (std::size_t i = candidates.size(); i > 1; --i) {
            std::swap(candidates[i - 1],
                      candidates[sim_->rng().nextRange(i)]);
        }
        break;
    }

    std::size_t promoted = 0;
    for (Page *pg : candidates) {
        if (promoted >= kPromoteBatch)
            break;
        // Skip pages with no signal at all (never accessed).
        if (mode_ != AmpMode::Random && pg->accessCount() == 0)
            break;
        auto &lists = mem.node(pg->node()).lists();
        lists.remove(pg);
        bool ok = sim_->promotePage(
            pg, sim::Simulator::ChargeMode::Background);
        if (!ok) {
            // Make room in the tier the page would be promoted into:
            // every candidate has one, and the failed promotion left
            // the page on its source node.
            TierRank up = kInvalidTier;
            mem.higherTier(mem.node(pg->node()).tier(), up);
            for (NodeId id : mem.tier(up))
                sim_->maybeReclaim(mem.node(id));
            ok = sim_->promotePage(
                pg, sim::Simulator::ChargeMode::Background);
        }
        if (ok)
            ++promoted;
        else
            lists.add(pg, pfra::NodeLists::activeKind(pg->isAnon()));
    }

    // Decay: halve LFU counts every pass so stale popularity ages out
    // and selection tracks phase changes.
    space.forEachPage(
        [](Page *pg) { pg->setAccessCount(pg->accessCount() / 2); });
    (void)now;
}

void
AmpPolicy::handlePressure(sim::Node &node)
{
    std::size_t remaining = kPressureBudget;
    bool progress = true;
    while (!node.aboveHigh() && remaining > 0 && progress) {
        progress = reclaimPass(node, remaining);
        for (bool anon : {true, false}) {
            const auto stats = pfra::balanceActiveInactive(
                node.lists(), anon, 128, node.inactiveRatio());
            sim_->chargeScan(stats.scanned);
            if (stats.deactivated > 0)
                progress = true;
        }
    }
}

FeatureRow
AmpPolicy::features() const
{
    FeatureRow row;
    row.tiering = "AMP";
    row.tracking = "Reference Bit";
    row.promotion = "Recency+Frequency+Random";
    row.demotion = "Recency";
    row.numaAware = "No";
    row.spaceOverhead = "Yes";
    row.generality = "Huge Page";
    row.evaluation = "Emulator (QEMU)";
    row.usability = "No KMEM DAX Support";
    row.keyInsight = "Hybrid page selection";
    return row;
}

}  // namespace policies
}  // namespace mclock
