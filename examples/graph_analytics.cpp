/**
 * @file
 * Graph analytics example: run GAPBS PageRank on a Kronecker graph
 * whose footprint exceeds DRAM, comparing static tiering against
 * MULTI-CLOCK (the scenario motivating the paper's Fig. 6).
 *
 * Usage: graph_analytics [scale] [degree] [trials]
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/parse.hh"
#include "base/units.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/driver.hh"

using namespace mclock;

namespace {

/** argv[i] as an unsigned, @p fallback when absent; exits 2 if bad. */
unsigned
argOr(int argc, char **argv, int i, const char *name, unsigned fallback)
{
    std::uint64_t value = fallback;
    if (i < argc && !parseUnsigned(argv[i], UINT_MAX, value)) {
        std::fprintf(stderr,
                     "bad %s argument '%s'\n"
                     "usage: graph_analytics [scale] [degree] [trials]\n",
                     name, argv[i]);
        std::exit(2);
    }
    return static_cast<unsigned>(value);
}

}  // namespace

int
main(int argc, char **argv)
{
    workloads::gapbs::GapbsConfig cfg;
    cfg.scale = argOr(argc, argv, 1, "scale", 13);
    cfg.degree = argOr(argc, argv, 2, "degree", 16);
    cfg.trials = argOr(argc, argv, 3, "trials", 2);
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
