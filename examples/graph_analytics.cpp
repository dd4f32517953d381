/**
 * @file
 * Graph analytics example: run GAPBS PageRank on a Kronecker graph
 * whose footprint exceeds DRAM, comparing static tiering against
 * MULTI-CLOCK (the scenario motivating the paper's Fig. 6).
 *
 * Usage: graph_analytics [scale] [degree] [trials]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/units.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/driver.hh"

using namespace mclock;

int
main(int argc, char **argv)
{
    workloads::gapbs::GapbsConfig cfg;
    cfg.scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 13;
    cfg.degree = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 16;
    cfg.trials = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 2;
    cfg.prIters = 5;

    std::printf("PageRank on kron scale=%u degree=%u (%u trials)\n",
                cfg.scale, cfg.degree, cfg.trials);
    std::printf("%-12s %14s %14s %10s\n", "policy", "avg trial (s)",
                "promotions", "checksum");

    double staticSeconds = 0.0;
    for (const std::string policy : {"static", "multiclock", "nimble"}) {
        sim::MachineConfig machine;
        machine.nodes = {{TierKind::Dram, 8_MiB},
                         {TierKind::Pmem, 32_MiB}};
        machine.cache.sizeBytes = 256_KiB;
        sim::Simulator sim(machine);
        policies::PolicyOptions opts;
        opts.scanInterval = 4_ms;  // scaled cadence (see benches)
        sim.setPolicy(policies::makePolicy(policy, opts));

        workloads::gapbs::GapbsDriver driver(sim, cfg);
        const auto result =
            driver.run(workloads::gapbs::Kernel::PR);
        if (policy == "static")
            staticSeconds = result.avgTrialSeconds();
        std::printf("%-12s %14.3f %14llu %10llu  (%.2fx static)\n",
                    policy.c_str(), result.avgTrialSeconds(),
                    static_cast<unsigned long long>(
                        sim.vmstat().global(stats::VmItem::PgpromoteSuccess)),
                    static_cast<unsigned long long>(result.checksum),
                    staticSeconds / result.avgTrialSeconds());
    }
    return 0;
}
