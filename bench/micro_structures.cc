/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot data structures: LRU
 * list operations, CLOCK scan passes, the LLC model, the zipfian
 * generator, the simulator's end-to-end access path, and the GAPBS
 * graph set-up. These bound the host-time cost of simulation and the
 * simulated daemon overheads.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "harness/profiles.hh"
#include "mem/cache.hh"
#include "pfra/lru_lists.hh"
#include "pfra/vmscan.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/address_space.hh"
#include "vm/page.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/zipf.hh"

using namespace mclock;

namespace {

void
BM_LruListMove(benchmark::State &state)
{
    pfra::NodeLists lists;
    std::vector<std::unique_ptr<Page>> pages;
    for (int i = 0; i < 1024; ++i) {
        pages.push_back(std::make_unique<Page>(i, true));
        lists.add(pages.back().get(), LruListKind::InactiveAnon);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        Page *pg = pages[i++ & 1023].get();
        lists.moveTo(pg, LruListKind::ActiveAnon);
        lists.moveTo(pg, LruListKind::InactiveAnon);
    }
}
BENCHMARK(BM_LruListMove);

void
BM_ClockScanPass(benchmark::State &state)
{
    pfra::NodeLists lists;
    std::vector<std::unique_ptr<Page>> pages;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
        pages.push_back(std::make_unique<Page>(i, true));
        lists.add(pages.back().get(), LruListKind::ActiveAnon);
    }
    Rng rng(1);
    for (auto _ : state) {
        // Mark a third of the pages referenced, then shrink.
        for (std::size_t i = 0; i < n / 3; ++i)
            pages[rng.nextRange(n)]->setPteReferenced(true);
        pfra::ScanStats stats = pfra::shrinkActiveList(lists, true, n);
        benchmark::DoNotOptimize(stats.scanned);
        // Move everything back to active for the next iteration.
        auto &inactive = lists.list(LruListKind::InactiveAnon);
        while (Page *pg = inactive.back())
            lists.moveTo(pg, LruListKind::ActiveAnon);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClockScanPass)->Arg(1024)->Arg(8192);

/**
 * PageRank's access shape, drawn once: a sequential 4-byte stream over
 * the CSR edges interleaved 1:1 with zipf-skewed 4-byte reads of a
 * 512 KiB score array (hub vertices are hot, scattered by the
 * scrambler as a Kronecker graph's are).
 */
const std::vector<Paddr> &
pageRankAddresses()
{
    static const std::vector<Paddr> addrs = [] {
        constexpr std::size_t kAccesses = std::size_t{1} << 20;
        constexpr Paddr kScores = 64_MiB;  // past the edge stream
        workloads::ScrambledZipfianGenerator zipf(512_KiB / 4);
        Rng rng(5);
        std::vector<Paddr> v;
        v.reserve(kAccesses);
        for (std::size_t i = 0; i < kAccesses / 2; ++i) {
            v.push_back(4 * i);
            v.push_back(kScores + 4 * zipf.next(rng));
        }
        return v;
    }();
    return addrs;
}

/**
 * shape:0 — random addresses over 64 MiB on the default 16-way
 * geometry. shape:1 — a sequential 4-byte stream on the 8 ways of
 * the harness profiles, where 15 of every 16 accesses hit the set's
 * most recent line. shape:2 — pageRankAddresses() on gapbsMachine()'s
 * 256 KiB, 16-way LLC, the Fig. 6 path without the simulator around it.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    const auto shape = state.range(0);
    CacheConfig cfg;
    cfg.sizeBytes = 1_MiB;
    if (shape == 1)
        cfg.ways = 8;
    if (shape == 2)
        cfg = harness::gapbsMachine().cache;
    CacheModel cache(cfg);
    const std::vector<Paddr> &pageRank = pageRankAddresses();
    Rng rng(2);
    Paddr next = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        Paddr pa = 0;
        switch (shape) {
          case 0: pa = rng.nextRange(64_MiB); break;
          case 1: pa = (next += 4) & (64_MiB - 1); break;
          default: pa = pageRank[i++ & (pageRank.size() - 1)]; break;
        }
        benchmark::DoNotOptimize(cache.access(pa, false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->ArgName("shape")->Arg(0)->Arg(1)->Arg(2);

void
BM_ZipfianNext(benchmark::State &state)
{
    workloads::ZipfianGenerator zipf(1u << 20);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void
BM_SimulatorAccessPath(benchmark::State &state)
{
    sim::MachineConfig cfg = sim::benchMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("multiclock"));
    const std::size_t pages = 4096;
    const Vaddr base = sim.mmap(pages * kPageSize);
    // Pre-fault.
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);
    Rng rng(4);
    for (auto _ : state) {
        const Vaddr va = base + rng.nextRange(pages) * kPageSize +
                         (rng.next64() & 0xfc0);
        sim.read(va, 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorAccessPath);

void
BM_MigrationRoundTrip(benchmark::State &state)
{
    sim::MachineConfig cfg = sim::benchMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("static"));
    const Vaddr base = sim.mmap(kPageSize);
    sim.write(base);
    Page *pg = sim.space().lookup(pageNumOf(base));
    sim.policy().onPageFreed(pg);  // isolate
    // Each committed move places the page on an LRU list: isolate it
    // again before the next one.
    for (auto _ : state) {
        sim.demotePage(pg, sim::Simulator::ChargeMode::Background);
        sim.policy().onPageFreed(pg);
        sim.promotePage(pg, sim::Simulator::ChargeMode::Background);
        sim.policy().onPageFreed(pg);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MigrationRoundTrip);

/** The Fig. 6 graph: Kronecker scale 16, degree 24 (~1.57M edges). */
constexpr unsigned kGraphScale = 16, kGraphDegree = 24;

void
BM_KroneckerEdges(benchmark::State &state)
{
    for (auto _ : state) {
        Rng rng(1);
        const auto edges = workloads::gapbs::makeKroneckerEdges(
            kGraphScale, kGraphDegree, rng);
        benchmark::DoNotOptimize(edges.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            (std::int64_t{1} << kGraphScale) * kGraphDegree);
}
BENCHMARK(BM_KroneckerEdges)->Unit(benchmark::kMillisecond);

/** Builder::build of that graph into a fresh gapbsMachine() simulator. */
void
BM_BuildCsr(benchmark::State &state)
{
    namespace gapbs = workloads::gapbs;
    Rng rng(1);
    const auto edges =
        gapbs::makeKroneckerEdges(kGraphScale, kGraphDegree, rng);
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<gapbs::Graph> graph;
    for (auto _ : state) {
        state.PauseTiming();
        graph.reset();
        sim = std::make_unique<sim::Simulator>(harness::gapbsMachine());
        sim->setPolicy(policies::makePolicy("multiclock"));
        gapbs::EdgeList input = edges;
        state.ResumeTiming();
        graph = gapbs::Builder::build(*sim, std::move(input),
                                      gapbs::BuildOptions{});
        benchmark::DoNotOptimize(graph.get());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BuildCsr)->Unit(benchmark::kMillisecond);

}  // namespace
