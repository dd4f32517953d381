/**
 * @file
 * Extending the library: implement your own tiering policy against the
 * public TieringPolicy interface and compare it with MULTI-CLOCK.
 *
 * The toy policy below ("second-chance promoter") promotes any PM page
 * whose PTE accessed bit is set on two consecutive daemon scans — a
 * middle ground between Nimble (1 reference) and MULTI-CLOCK (3 list
 * transitions).
 */

#include <cstdio>
#include <memory>
#include <string>

#include "base/units.hh"
#include "pfra/lru_lists.hh"
#include "policies/factory.hh"
#include "policies/policy.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"
#include "workloads/ycsb.hh"

using namespace mclock;

/** Promote after seeing the accessed bit in two consecutive scans. */
class SecondChancePromoter : public policies::TieringPolicy
{
  public:
    const char *name() const override { return "second-chance"; }

    void
    attach(sim::Simulator &sim) override
    {
        TieringPolicy::attach(sim);
        sim.daemons().add("second_chance", 4_ms,
                          [this](SimTime now) { tick(now); });
    }

    policies::FeatureRow
    features() const override
    {
        policies::FeatureRow row;
        row.tiering = "SecondChance (example)";
        row.tracking = "Reference Bit";
        row.promotion = "2-scan recency";
        row.demotion = "Recency";
        return row;
    }

  private:
    void
    tick(SimTime)
    {
        auto &mem = sim_->memory();
        sim_->metrics().beginPromotionRound();
        for (NodeId id : mem.tier(TierKind::Pmem)) {
            auto &node = mem.node(id);
            for (bool anon : {true, false}) {
                scanList(node, pfra::NodeLists::inactiveKind(anon), 512);
                scanList(node, pfra::NodeLists::activeKind(anon), 512);
            }
        }
    }

    void
    scanList(sim::Node &node, LruListKind kind, std::size_t budget)
    {
        auto &lists = node.lists();
        auto &list = lists.list(kind);
        const std::size_t n = std::min(budget, list.size());
        for (std::size_t i = 0; i < n; ++i) {
            Page *pg = list.back();
            if (pg->testAndClearPteReferenced()) {
                if (pg->referenced()) {
                    // Second consecutive referenced scan: promote.
                    pg->setReferenced(false);
                    lists.remove(pg);
                    // A committed promotion leaves the page hot on
                    // the DRAM active list (Fig. 4); a failed one
                    // leaves it isolated, so put it back.
                    if (!sim_->promotePage(
                            pg, sim::Simulator::ChargeMode::Background))
                        lists.add(pg, kind);
                } else {
                    pg->setReferenced(true);
                    lists.rotateToFront(pg);
                }
            } else {
                pg->setReferenced(false);
                lists.rotateToFront(pg);
            }
        }
        sim_->chargeScan(n);
    }
};

int
main()
{
    workloads::YcsbConfig ycsb;
    ycsb.recordCount = 9000;
    ycsb.opsPerWorkload = 300000;

    std::printf("%-14s %12s %12s %12s\n", "policy", "kops/s",
                "promotions", "re-accessed");
    for (const std::string policy :
         {"static", "second-chance", "multiclock"}) {
        sim::MachineConfig machine;
        machine.nodes = {{TierKind::Dram, 4_MiB},
                         {TierKind::Pmem, 16_MiB}};
        machine.cache.sizeBytes = 256_KiB;
        sim::Simulator sim(machine);
        policies::PolicyOptions opts;
        opts.scanInterval = 4_ms;  // scaled cadence (see benches)
        if (policy == "second-chance")
            sim.setPolicy(std::make_unique<SecondChancePromoter>());
        else
            sim.setPolicy(policies::makePolicy(policy, opts));

        workloads::YcsbDriver driver(sim, ycsb);
        driver.load();
        const auto result = driver.run(workloads::YcsbWorkload::A);
        std::printf("%-14s %12.1f %12llu %12llu\n", policy.c_str(),
                    result.throughputOpsPerSec() / 1000.0,
                    static_cast<unsigned long long>(
                        sim.vmstat().global(stats::VmItem::PgpromoteSuccess)),
                    static_cast<unsigned long long>(
                        sim.metrics().totalReaccessed()));
    }
    return 0;
}
