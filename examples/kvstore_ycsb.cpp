/**
 * @file
 * Key-value store example: a Memcached-like store under the YCSB
 * workload mix, comparing every tiered policy (the paper's headline
 * Fig. 5 experiment at example scale).
 *
 * Usage: kvstore_ycsb [records] [ops]
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "base/parse.hh"
#include "base/units.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "workloads/ycsb.hh"

using namespace mclock;

namespace {

/** argv[i] as an integer, @p fallback when absent; exits 2 if bad. */
std::uint64_t
argOr(int argc, char **argv, int i, const char *name,
      std::uint64_t fallback)
{
    std::uint64_t value = fallback;
    if (i < argc && !parseUnsigned(argv[i], SIZE_MAX, value)) {
        std::fprintf(stderr,
                     "bad %s argument '%s'\n"
                     "usage: kvstore_ycsb [records] [ops]\n",
                     name, argv[i]);
        std::exit(2);
    }
    return value;
}

}  // namespace

int
main(int argc, char **argv)
{
    workloads::YcsbConfig ycsb;
    ycsb.recordCount = argOr(argc, argv, 1, "records", 9000);
    ycsb.opsPerWorkload = argOr(argc, argv, 2, "ops", 300000);

    // Daemon cadence scaled to the short simulated run, like the
    // harness profiles (see benchPolicyOptions in
    // src/harness/profiles.hh).
    policies::PolicyOptions opts;
    opts.scanInterval = 4_ms;

    std::printf("YCSB over Memcached-like KV store: %zu records, "
                "%llu ops per workload\n",
                ycsb.recordCount,
                static_cast<unsigned long long>(ycsb.opsPerWorkload));
    std::printf("%-12s", "policy");
    for (const char *w : {"A", "B", "C", "F", "W", "D"})
        std::printf(" %10s", w);
    std::printf("   (kops/s per workload)\n");

    for (const auto &policy : policies::tieredPolicyNames()) {
        sim::MachineConfig machine;
        machine.nodes = {{TierKind::Dram, 4_MiB},
                         {TierKind::Pmem, 32_MiB}};  // headroom for D's inserts
        machine.cache.sizeBytes = 256_KiB;
        sim::Simulator sim(machine);
        sim.setPolicy(policies::makePolicy(policy, opts));

        workloads::YcsbDriver driver(sim, ycsb);
        driver.load();
        const auto results = driver.runPaperSequence();
        std::printf("%-12s", policy.c_str());
        for (const auto &r : results)
            std::printf(" %10.1f", r.throughputOpsPerSec() / 1000.0);
        std::printf("\n");
    }
    std::printf("\nWorkload E is omitted: Memcached implements no SCAN "
                "operation (paper §V-B).\n");
    return 0;
}
