#include "policies/nimble.hh"

#include "pfra/vmscan.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

namespace mclock {
namespace policies {

NimblePolicy::NimblePolicy(const PolicyOptions &opts)
    : scanInterval_(opts.scanInterval), nrScan_(opts.nrScan)
{
}

void
NimblePolicy::attach(sim::Simulator &sim)
{
    TieringPolicy::attach(sim);
    auto &mem = sim.memory();
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        TierRank up;
        if (!mem.higherTier(mem.node(id).tier(), up))
            continue;
        sim.daemons().add("knimble/" + std::to_string(id),
                          scanInterval_, [this, id](SimTime now) {
                              tick(sim_->memory().node(id), now);
                          });
    }
}

void
NimblePolicy::tick(sim::Node &node, SimTime now)
{
    (void)now;
    sim_->vmstat().add(stats::VmItem::KpromotedWake, node.id());
    sim_->trace().record(stats::TraceEventType::KpromotedWake, node.id(),
                         node.lists().inactiveSize(true),
                         node.lists().activeSize(true));
    sim_->metrics().beginPromotionRound();
    std::uint64_t scanned = 0;
    std::uint64_t promoted = 0;
    for (bool anon : {true, false}) {
        scanned += scanAndPromote(node, pfra::NodeLists::inactiveKind(anon),
                                  nrScan_, promoted);
        scanned += scanAndPromote(node, pfra::NodeLists::activeKind(anon),
                                  nrScan_, promoted);
    }
    sim_->chargeScan(scanned);
}

std::uint64_t
NimblePolicy::scanAndPromote(sim::Node &node, LruListKind kind,
                             std::size_t nrScan, std::uint64_t &promoted)
{
    auto &mem = sim_->memory();
    auto &lists = node.lists();
    auto &list = lists.list(kind);
    const bool anon = (kind == LruListKind::InactiveAnon ||
                       kind == LruListKind::ActiveAnon);
    const std::size_t budget = std::min(nrScan, list.size());
    // Exchange victims come from the adjacent faster tier — the tier
    // promotePage() targets from this node.
    TierRank up = kInvalidTier;
    const bool hasHigher = mem.higherTier(node.tier(), up);

    for (std::size_t i = 0; i < budget; ++i) {
        if (promoted >= kPromoteBudget)
            break;  // the per-wake "top pages" batch is exhausted
        Page *pg = list.back();
        if (!pg->testAndClearPteReferenced()) {
            lists.rotateToFront(pg);
            continue;
        }
        // Referenced since the last scan: Nimble promotes on recency
        // alone. Migrate now; exchange with a cold upper-tier page when
        // the upper tier has no free frames.
        lists.remove(pg);
        if (sim_->promotePage(pg, sim::Simulator::ChargeMode::Background)) {
            ++promoted;
            continue;
        }
        Page *victim = hasHigher ? pickExchangeVictim(anon, up) : nullptr;
        if (victim) {
            auto &victimLists = mem.node(victim->node()).lists();
            victimLists.remove(victim);
            if (sim_->exchangePages(pg, victim, sim::Simulator::ChargeMode::Background)) {
                ++promoted;
                continue;
            }
            // Exchange failed (locked): put both back.
            victim->setReferenced(false);
            mem.node(victim->node()).lists().add(
                victim, pfra::NodeLists::inactiveKind(victim->isAnon()));
        }
        // No exchange victim: fall back to the shared demotion
        // machinery (the paper implements Nimble's selection inside the
        // same kernel framework), then retry the promotion.
        if (hasHigher) {
            for (NodeId id : mem.tier(up))
                sim_->maybeReclaim(mem.node(id));
            if (sim_->promotePage(pg,
                                  sim::Simulator::ChargeMode::Background)) {
                ++promoted;
                continue;
            }
        }
        // Could not move it; return to this node's list head.
        lists.add(pg, kind);
    }
    lists.statAdd(isActiveList(kind) ? stats::VmItem::PgscanActive
                                     : stats::VmItem::PgscanInactive,
                  budget);
    return budget;
}

Page *
NimblePolicy::pickExchangeVictim(bool anon, TierRank tier)
{
    // Exchange with the bottom of the upper tier's LRU: sample the
    // inactive tail for a page not referenced since the last scan; if
    // none, rebalance active -> inactive and sample once more.
    auto &mem = sim_->memory();
    for (NodeId id : mem.tier(tier)) {
        auto &lists = mem.node(id).lists();
        for (int attempt = 0; attempt < 2; ++attempt) {
            auto &inactive =
                lists.list(pfra::NodeLists::inactiveKind(anon));
            const std::size_t sample =
                std::min(kVictimSample, inactive.size());
            for (std::size_t i = 0; i < sample; ++i) {
                Page *pg = inactive.back();
                // CLOCK pass over the upper tier: consume the accessed
                // bit; pages referenced since the previous pass get a
                // second chance, the rest are cold enough to exchange.
                if (!pg->testAndClearPteReferenced() && !pg->locked() &&
                    !pg->unevictable()) {
                    return pg;
                }
                lists.rotateToFront(pg);
            }
            if (attempt == 0) {
                auto &node = mem.node(id);
                const auto stats = pfra::balanceActiveInactive(
                    node.lists(), anon, 256, node.inactiveRatio());
                sim_->chargeScan(stats.scanned);
                if (stats.deactivated == 0)
                    break;
            }
        }
    }
    return nullptr;
}

void
NimblePolicy::handlePressure(sim::Node &node)
{
    // Rebalance, then demote unreferenced inactive-tail pages.
    for (bool anon : {true, false}) {
        const auto stats = pfra::balanceActiveInactive(
            node.lists(), anon, kPressureBudget, node.inactiveRatio());
        sim_->chargeScan(stats.scanned);
    }
    std::size_t remaining = kPressureBudget;
    while (!node.aboveHigh() && remaining > 0 &&
           reclaimPass(node, remaining)) {
    }
}

FeatureRow
NimblePolicy::features() const
{
    FeatureRow row;
    row.tiering = "Nimble";
    row.tracking = "Reference Bit";
    row.promotion = "Recency";
    row.demotion = "Recency";
    row.numaAware = "No";
    row.spaceOverhead = "No";
    row.generality = "All";
    row.evaluation = "Emulator";
    row.usability = "Config. Launcher";
    row.keyInsight = "Optimize huge page migrations";
    return row;
}

}  // namespace policies
}  // namespace mclock
