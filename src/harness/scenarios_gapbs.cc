/**
 * @file
 * Graph-workload scenarios: Fig. 6 (GAPBS kernels under each tiering
 * policy) and Fig. 7 (Memory-mode comparison), plus the host-timed
 * micro_structures scenario. At the default seed every unit uses the
 * sub-seeds the checked-in golden fixtures were generated with.
 */

#include <chrono>
#include <map>
#include <memory>

#include "base/csv.hh"
#include "base/rng.hh"
#include "harness/scenario_common.hh"
#include "mem/cache.hh"
#include "pfra/lru_lists.hh"
#include "pfra/vmscan.hh"
#include "vm/address_space.hh"
#include "vm/page.hh"
#include "workloads/gapbs/driver.hh"
#include "workloads/ycsb.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace harness {

namespace {

using workloads::gapbs::Kernel;

const std::vector<Kernel> kKernels{Kernel::BFS, Kernel::SSSP,
                                   Kernel::PR,  Kernel::CC,
                                   Kernel::BC,  Kernel::TC};

workloads::gapbs::GapbsConfig
fig06Config(const RunContext &ctx)
{
    auto cfg = ctx.golden ? goldenGapbsConfig() : gapbsBenchConfig();
    cfg.trials = static_cast<unsigned>(ctx.param("trials", cfg.trials));
    return cfg;
}

// --- Fig. 6 -------------------------------------------------------------

Scenario
fig06Scenario()
{
    Scenario sc;
    sc.name = "fig06";
    sc.title = "Fig. 6: GAPBS execution time normalised to static "
               "tiering";
    sc.workload = "gapbs";
    sc.policies = policies::tieredPolicyNames();
    sc.expand = [sc](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const auto &policy : sc.policies) {
            for (Kernel k : kKernels) {
                const std::string name =
                    policy + "/" + workloads::gapbs::kernelName(k);
                units.push_back(
                    {name, [policy, k, ctx](const RunContext &) {
                        const auto cfg = fig06Config(ctx);
                        sim::MachineConfig machine = ctx.golden
                                                         ? goldenGapbsMachine()
                                                         : gapbsMachine();
                        machine.seed = ctx.seed;
                        applyStatsContext(machine, ctx);
                        RunRecord rec;
                        sim::Simulator sim(machine);
                        sim.setPolicy(policies::makePolicy(
                            policy, benchPolicyOptions()));
                        workloads::gapbs::GapbsDriver driver(sim, cfg);
                        const auto r = driver.run(k);
                        rec.metrics["seconds"] = r.avgTrialSeconds();
                        checkRunInvariants(sim, rec);
                        return rec;
                    }});
            }
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records) {
        ScenarioOutput out = mergeRecords(sc.expand(ctx), records);
        out.text.clear();
        const auto cfg = fig06Config(ctx);
        appendf(out.text,
                "=== Fig. 6: GAPBS avg execution time per trial, "
                "normalised to static tiering (lower is better) ===\n");
        appendf(out.text, "kron scale=%u degree=%u trials=%u\n",
                cfg.scale, cfg.degree, cfg.trials);
        appendf(out.text, "%-12s", "policy");
        for (Kernel k : kKernels)
            appendf(out.text, " %8s", workloads::gapbs::kernelName(k));
        appendf(out.text, "\n");

        CsvWriter csv;
        std::vector<std::string> header{"policy"};
        for (Kernel k : kKernels)
            header.push_back(workloads::gapbs::kernelName(k));
        csv.writeHeader(header);

        std::map<std::size_t, double> baseline;
        for (std::size_t p = 0; p < sc.policies.size(); ++p) {
            appendf(out.text, "%-12s", sc.policies[p].c_str());
            std::vector<std::string> row{sc.policies[p]};
            for (std::size_t k = 0; k < kKernels.size(); ++k) {
                const double secs =
                    records[p * kKernels.size() + k].metrics.at(
                        "seconds");
                if (sc.policies[p] == "static")
                    baseline[k] = secs;
                const double norm = secs / baseline[k];
                appendf(out.text, " %8.3f", norm);
                row.push_back(std::to_string(norm));
            }
            appendf(out.text, "\n");
            csv.writeRow(row);
        }
        appendf(out.text,
                "\nwrote fig06_gapbs_tiering.csv (execution time "
                "normalised to static)\n");
        out.artifacts.push_back({"fig06_gapbs_tiering.csv", csv.str()});
        return out;
    };
    return sc;
}

// --- Fig. 7 -------------------------------------------------------------

/** The three memory organisations compared in Fig. 7. */
struct Fig07Profiles
{
    sim::MachineConfig tiered;   ///< DRAM+PM, OS-managed
    sim::MachineConfig pmOnly;   ///< PM only; DRAM is the HW cache
    sim::MachineConfig gTiered;  ///< GAPBS-sized tiered machine
    sim::MachineConfig gPm;      ///< GAPBS-sized PM-only machine
    workloads::YcsbConfig ycsb;
    workloads::gapbs::GapbsConfig pr;
    policies::PolicyOptions opts;   ///< YCSB options (dramCache set)
    policies::PolicyOptions gOpts;  ///< GAPBS options (dramCache set)
};

Fig07Profiles
fig07Profiles(const RunContext &ctx)
{
    Fig07Profiles p;
    const std::uint64_t ops =
        ctx.param("ops", ctx.golden ? 40000 : 1200000);
    if (ctx.golden) {
        p.tiered.nodes = {{TierKind::Dram, 4_MiB},
                          {TierKind::Pmem, 24_MiB}};
        p.tiered.cache.sizeBytes = 64_KiB;
        p.tiered.metricsWindow = 20_ms;
        p.pmOnly = p.tiered;
        p.pmOnly.nodes = {{TierKind::Pmem, 24_MiB}};
        p.ycsb.recordCount = 16000;  // ~16 MiB items vs 4 MiB DRAM
        p.gTiered = goldenGapbsMachine();
        p.gTiered.nodes = {{TierKind::Dram, 2_MiB},
                           {TierKind::Pmem, 12_MiB}};
        p.gPm = p.gTiered;
        p.gPm.nodes = {{TierKind::Pmem, 12_MiB}};
        p.pr = goldenGapbsConfig();
        p.pr.prIters = 4;
    } else {
        p.tiered = memModeTieredMachine();
        p.pmOnly = memModePmMachine();
        // Workload sized ~4x DRAM (paper: Memory-mode uses all DRAM as
        // cache, so a competitive comparison needs footprint >> cache).
        p.ycsb.recordCount = 60000;  // ~64 MiB items vs 16 MiB DRAM
        p.gTiered = gapbsMachine();
        p.gTiered.nodes = {{TierKind::Dram, 8_MiB},
                           {TierKind::Pmem, 48_MiB}};
        p.gPm = p.gTiered;
        p.gPm.nodes = {{TierKind::Pmem, 48_MiB}};
        p.pr.scale = 16;  // footprint ~4x the 8 MiB DRAM-equivalent
        p.pr.degree = 20;
        p.pr.trials = 2;
        p.pr.prIters = 6;
    }
    p.ycsb.valueBytes = 1024;
    p.ycsb.opsPerWorkload = ops;
    p.ycsb.seed = ctx.derivedSeed(1, p.ycsb.seed);
    p.tiered.seed = p.pmOnly.seed = ctx.seed;
    p.gTiered.seed = p.gPm.seed = ctx.seed;
    applyStatsContext(p.tiered, ctx);
    applyStatsContext(p.pmOnly, ctx);
    applyStatsContext(p.gTiered, ctx);
    applyStatsContext(p.gPm, ctx);
    p.opts = benchPolicyOptions();
    p.opts.dramCacheBytes = p.tiered.tierBytes(TierKind::Dram);
    p.gOpts = benchPolicyOptions();
    p.gOpts.dramCacheBytes = p.gTiered.tierBytes(TierKind::Dram);
    return p;
}

constexpr const char *kFig07Policies[] = {"static", "multiclock",
                                          "memory-mode"};

Scenario
fig07Scenario()
{
    Scenario sc;
    sc.name = "fig07";
    sc.title = "Fig. 7: Memory-mode comparison (YCSB + PageRank)";
    sc.workload = "ycsb+gapbs";
    sc.policies = {"static", "multiclock", "memory-mode"};
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        for (const std::string policy : kFig07Policies) {
            units.push_back({"ycsb_a/" + policy,
                             [policy, ctx](const RunContext &) {
                const auto p = fig07Profiles(ctx);
                const auto &machine =
                    policy == "memory-mode" ? p.pmOnly : p.tiered;
                RunRecord rec;
                sim::Simulator sim(machine);
                sim.setPolicy(policies::makePolicy(policy, p.opts));
                workloads::YcsbDriver driver(sim, p.ycsb);
                driver.load();
                std::map<std::string, double> tput;
                for (const auto &r : driver.runPaperSequence())
                    tput[r.workload] = r.throughputOpsPerSec();
                rec.metrics["tput_a"] = tput.at("A");
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        for (const std::string policy : kFig07Policies) {
            units.push_back({"pagerank/" + policy,
                             [policy, ctx](const RunContext &) {
                const auto p = fig07Profiles(ctx);
                const auto &machine =
                    policy == "memory-mode" ? p.gPm : p.gTiered;
                RunRecord rec;
                sim::Simulator sim(machine);
                sim.setPolicy(policies::makePolicy(policy, p.gOpts));
                workloads::gapbs::GapbsDriver driver(sim, p.pr);
                rec.metrics["seconds"] =
                    driver.run(Kernel::PR).avgTrialSeconds();
                checkRunInvariants(sim, rec);
                return rec;
            }});
        }
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records) {
        ScenarioOutput out = mergeRecords(sc.expand(ctx), records);
        out.text.clear();
        const double staticTput = records[0].metrics.at("tput_a");
        const double mclockTput = records[1].metrics.at("tput_a");
        const double mmTput = records[2].metrics.at("tput_a");
        const double staticPr = records[3].metrics.at("seconds");
        const double mclockPr = records[4].metrics.at("seconds");
        const double mmPr = records[5].metrics.at("seconds");

        appendf(out.text,
                "=== Fig. 7(a): YCSB-A throughput, workload ~4x DRAM, "
                "normalised to static ===\n");
        appendf(out.text, "%-12s %8.3f\n", "static", 1.0);
        appendf(out.text, "%-12s %8.3f\n", "multiclock",
                mclockTput / staticTput);
        appendf(out.text, "%-12s %8.3f\n", "memory-mode",
                mmTput / staticTput);

        appendf(out.text,
                "\n=== Fig. 7(b): PageRank execution time, normalised "
                "to static (lower is better) ===\n");
        appendf(out.text, "%-12s %8.3f\n", "static", 1.0);
        appendf(out.text, "%-12s %8.3f\n", "multiclock",
                mclockPr / staticPr);
        appendf(out.text, "%-12s %8.3f\n", "memory-mode",
                mmPr / staticPr);

        CsvWriter csv;
        csv.writeHeader({"experiment", "static", "multiclock",
                         "memory_mode"});
        csv.writeRow({"ycsb_a_norm_tput", "1.0",
                      std::to_string(mclockTput / staticTput),
                      std::to_string(mmTput / staticTput)});
        csv.writeRow({"pagerank_norm_time", "1.0",
                      std::to_string(mclockPr / staticPr),
                      std::to_string(mmPr / staticPr)});
        appendf(out.text, "\nwrote fig07_memory_mode.csv\n");
        out.artifacts.push_back({"fig07_memory_mode.csv", csv.str()});
        return out;
    };
    return sc;
}

// --- micro_structures ---------------------------------------------------

/** Host-time a loop body; returns ns per iteration. */
template <typename F>
double
nsPerOp(std::uint64_t iters, F &&body)
{
    // mclock-lint: wall-clock-ok(host-timing diagnostic; not simulated state)
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        body(i);
    // mclock-lint: wall-clock-ok(host-timing diagnostic; not simulated state)
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

}  // namespace

Scenario
makeMicroScenario()
{
    Scenario sc;
    sc.name = "micro_structures";
    sc.title = "Microbenchmarks: hot data structures (host ns/op)";
    sc.workload = "micro";
    sc.policies = {};
    sc.goldenEligible = false;  // host-timed, inherently nondeterministic
    sc.expand = [](const RunContext &ctx) {
        std::vector<RunUnit> units;
        units.push_back({"timings", [ctx](const RunContext &) {
            RunRecord rec;
            volatile std::uint64_t sink = 0;

            {
                AddressSpace space;
                pfra::NodeLists lists;
                std::vector<std::unique_ptr<Page>> pages;
                for (int i = 0; i < 1024; ++i) {
                    pages.push_back(
                        std::make_unique<Page>(&space, i, true));
                    lists.add(pages.back().get(),
                              LruListKind::InactiveAnon);
                }
                rec.metrics["lru_list_move_ns"] =
                    nsPerOp(1u << 18, [&](std::uint64_t i) {
                        Page *pg = pages[i & 1023].get();
                        lists.moveTo(pg, LruListKind::ActiveAnon);
                        lists.moveTo(pg, LruListKind::InactiveAnon);
                    });
            }

            {
                AddressSpace space;
                pfra::NodeLists lists;
                std::vector<std::unique_ptr<Page>> pages;
                const std::size_t n = 1024;
                for (std::size_t i = 0; i < n; ++i) {
                    pages.push_back(
                        std::make_unique<Page>(&space, i, true));
                    lists.add(pages.back().get(),
                              LruListKind::ActiveAnon);
                }
                Rng rng(ctx.seed);
                rec.metrics["clock_scan_pass_ns"] =
                    nsPerOp(256, [&](std::uint64_t) {
                        for (std::size_t i = 0; i < n / 3; ++i)
                            pages[rng.nextRange(n)]->setPteReferenced(
                                true);
                        sink = sink +
                               pfra::shrinkActiveList(lists, true, n)
                                   .scanned;
                        auto &inactive =
                            lists.list(LruListKind::InactiveAnon);
                        while (Page *pg = inactive.back())
                            lists.moveTo(pg, LruListKind::ActiveAnon);
                    });
            }

            {
                CacheConfig cfg;
                cfg.sizeBytes = 1_MiB;
                CacheModel cache(cfg);
                Rng rng(ctx.seed + 1);
                rec.metrics["cache_access_ns"] =
                    nsPerOp(1u << 18, [&](std::uint64_t) {
                        sink = sink +
                               cache.access(rng.nextRange(64_MiB),
                                            false).hit;
                    });
            }

            {
                workloads::ZipfianGenerator zipf(1u << 20);
                Rng rng(ctx.seed + 2);
                rec.metrics["zipf_next_ns"] =
                    nsPerOp(1u << 18, [&](std::uint64_t) {
                        sink = sink + zipf.next(rng);
                    });
            }

            {
                sim::MachineConfig cfg = sim::benchMachine();
                cfg.seed = ctx.seed;
                sim::Simulator sim(cfg);
                sim.setPolicy(policies::makePolicy("multiclock"));
                const std::size_t pages = 4096;
                const Vaddr base = sim.mmap(pages * kPageSize);
                for (std::size_t i = 0; i < pages; ++i)
                    sim.write(base + i * kPageSize);
                Rng rng(ctx.seed + 3);
                rec.metrics["sim_access_path_ns"] =
                    nsPerOp(1u << 16, [&](std::uint64_t) {
                        const Vaddr va =
                            base + rng.nextRange(pages) * kPageSize +
                            (rng.next64() & 0xfc0);
                        sim.read(va, 8);
                    });
            }

            {
                sim::MachineConfig cfg = sim::benchMachine();
                cfg.seed = ctx.seed;
                sim::Simulator sim(cfg);
                sim.setPolicy(policies::makePolicy("static"));
                const Vaddr base = sim.mmap(kPageSize);
                sim.write(base);
                Page *pg = sim.space().lookup(pageNumOf(base));
                sim.policy().onPageFreed(pg);  // isolate
                rec.metrics["migration_round_trip_ns"] =
                    nsPerOp(1u << 14, [&](std::uint64_t) {
                        sim.demotePage(
                            pg, sim::Simulator::ChargeMode::Background);
                        sim.promotePage(
                            pg, sim::Simulator::ChargeMode::Background);
                    });
            }

            (void)sink;
            return rec;
        }});
        return units;
    };
    sc.reduce = [sc](const RunContext &ctx,
                     const std::vector<RunRecord> &records) {
        ScenarioOutput out = mergeRecords(sc.expand(ctx), records);
        out.text.clear();
        appendf(out.text,
                "=== Microbenchmarks: hot data structures (host time) "
                "===\n");
        appendf(out.text, "%-24s %12s\n", "benchmark", "ns/op");
        for (const auto &[key, value] : records[0].metrics) {
            appendf(out.text, "%-24s %12.1f\n", key.c_str(), value);
        }
        appendf(out.text,
                "\n(host-timed; see the micro_structures binary for "
                "the full google-benchmark suite)\n");
        return out;
    };
    return sc;
}

std::vector<Scenario>
makeGapbsScenarios()
{
    return {fig06Scenario(), fig07Scenario()};
}

}  // namespace harness
}  // namespace mclock
