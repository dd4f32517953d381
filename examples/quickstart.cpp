/**
 * @file
 * Quickstart: build a hybrid DRAM+PM machine, run MULTI-CLOCK, and
 * watch a hot page migrate from the PM tier to the DRAM tier.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "base/units.hh"
#include "core/multiclock.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/page.hh"

using namespace mclock;

int
main()
{
    // 1. Describe the machine: one DRAM node + one PM node, with the
    //    default Optane-like timing model.
    sim::MachineConfig machine = sim::tinyTestMachine();
    machine.cache.enabled = false;  // keep the demo readable

    // 2. Instantiate the simulator and install the MULTI-CLOCK policy.
    sim::Simulator sim(machine);
    sim.setPolicy(std::make_unique<core::MultiClockPolicy>());

    std::printf("machine: %zu DRAM frames + %zu PM frames\n",
                sim.memory().node(0).totalFrames(),
                sim.memory().node(1).totalFrames());

    // 3. Allocate more memory than DRAM holds; later pages spill to PM.
    const std::size_t dramFrames = sim.memory().node(0).totalFrames();
    const std::size_t pages = dramFrames + 64;
    const Vaddr heap = sim.mmap(pages * kPageSize, true, "heap");
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(heap + i * kPageSize);

    // 4. Find a page that was born in the PM tier.
    Page *victim = nullptr;
    sim.space().forEachPage([&](Page *pg) {
        if (!victim && sim.pageTier(pg) == TierKind::Pmem)
            victim = pg;
    });
    std::printf("picked page vpn=%llu, born in %s\n",
                static_cast<unsigned long long>(victim->vpn()),
                sim.memConfig().tierName(sim.pageTier(victim)));

    // 5. Hammer that page. kpromoted wakes every second; after a few
    //    scans the page walks inactive -> active -> promote -> DRAM.
    int second = 0;
    while (sim.pageTier(victim) == TierKind::Pmem && second < 10) {
        for (int i = 0; i < 8; ++i) {
            sim.read(victim->vaddr());
            sim.compute(125_ms);
        }
        ++second;
        std::printf("t=%ds: page is in %s (list=%s)\n", second,
                    sim.memConfig().tierName(sim.pageTier(victim)),
                    lruListName(victim->list()));
    }

    std::printf("\nMULTI-CLOCK promoted the hot page after ~%d scans\n",
                second);
    std::printf("promotions=%llu demotions=%llu\n",
                static_cast<unsigned long long>(
                    sim.vmstat().global(stats::VmItem::PgpromoteSuccess)),
                static_cast<unsigned long long>(
                    sim.vmstat().global(stats::VmItem::Pgdemote)));
    return sim.pageTier(victim) == TierKind::Dram ? 0 : 1;
}
