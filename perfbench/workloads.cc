#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "harness/invariants.hh"
#include "harness/profiles.hh"
#include "mem/cache.hh"
#include "policies/factory.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"
#include "stats/vmstat.hh"
#include "traced_policy.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/gapbs/pr.hh"
#include "workloads/kvstore.hh"
#include "workloads/ycsb.hh"
#include "workloads/zipf.hh"

namespace perfbench {

namespace {

namespace harness = mclock::harness;
namespace policies = mclock::policies;
namespace sim = mclock::sim;
namespace wl = mclock::workloads;
namespace gapbs = mclock::workloads::gapbs;
using mclock::SimTime;
using mclock::stats::VmItem;

constexpr unsigned kShards = 8;
constexpr std::size_t kValueBytes = 1024;

/** splitmix64: independent input streams derived from the seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t slot)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (slot + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
seconds(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) / 1e9;
}

/** multiclock with the harness's scaled cadence; traced if @p lane. */
std::unique_ptr<policies::TieringPolicy>
makeMulticlock(SpanLane *lane)
{
    auto policy =
        policies::makePolicy("multiclock", harness::benchPolicyOptions());
    if (!lane)
        return policy;
    return std::make_unique<TracedPolicy>(std::move(policy), *lane);
}

SpanLane *
laneOf(const RepOptions &o, std::size_t i)
{
    return o.spans ? &o.spans->lane(i) : nullptr;
}

/** The shard_bigmem whole-host machine (8x a golden YCSB shard). */
sim::MachineConfig
shardHostMachine(std::uint64_t seed)
{
    using namespace mclock;
    sim::MachineConfig cfg;
    cfg.nodes = {{TierKind::Dram, 32_MiB}, {TierKind::Pmem, 192_MiB}};
    cfg.cache.sizeBytes = 32_KiB;
    cfg.cache.ways = 8;
    cfg.metricsWindow = harness::kMetricsWindow;
    cfg.seed = seed;
    return cfg;
}

Counts
readCounts(const sim::Metrics &m, const mclock::stats::VmStat &v,
           std::uint64_t llcHits, std::uint64_t llcMisses,
           std::uint64_t llcWritebacks, std::uint64_t appOps)
{
    const auto g = [&v](VmItem item) { return v.global(item); };
    return {
        {"mem.llc_hits", llcHits},
        {"mem.llc_misses", llcMisses},
        {"mem.llc_writebacks", llcWritebacks},
        {"policies.kswapd_wake", g(VmItem::KswapdWake)},
        {"core.kpromoted_wake", g(VmItem::KpromotedWake)},
        {"core.pgpromote_selected", g(VmItem::PgpromoteSelected)},
        {"core.promoted_reaccessed", m.totalReaccessed()},
        {"pfra.pgscan", g(VmItem::PgscanActive) +
                            g(VmItem::PgscanInactive) +
                            g(VmItem::PgscanPromote)},
        {"pfra.pgactivate", g(VmItem::Pgactivate)},
        {"pfra.pgdeactivate", g(VmItem::Pgdeactivate)},
        {"pfra.pgrotated", g(VmItem::Pgrotated)},
        {"pfra.pgsteal", g(VmItem::Pgsteal)},
        {"sim.app_ops", appOps},
        {"sim.accesses", m.totalAccesses()},
        {"sim.tier0_accesses", m.totalTierAccesses(0)},
        {"sim.inline_overhead_ns", m.stats().get("inline_overhead_ns")},
        {"sim.background_work_ns", m.stats().get("background_work_ns")},
        {"sim.migration.promotions", g(VmItem::PgpromoteSuccess)},
        {"sim.migration.demotions", g(VmItem::Pgdemote)},
        {"sim.migration.failed",
         g(VmItem::PgpromoteFail) + g(VmItem::PgdemoteFail)},
        {"vm.pgfault", g(VmItem::PgfaultDram) + g(VmItem::PgfaultPm)},
        {"vm.hint_faults", g(VmItem::PghintFault)},
        {"vm.pswpin", g(VmItem::Pswpin)},
        {"vm.pswpout", g(VmItem::Pswpout)},
    };
}

/** Counts of one standalone simulator; sharded entries are 0. */
Counts
readCounts(sim::Simulator &s)
{
    const mclock::CacheModel *llc = s.llc();
    Counts c = readCounts(s.metrics(), s.vmstat(), llc ? llc->hits() : 0,
                          llc ? llc->misses() : 0,
                          llc ? llc->writebacks() : 0, s.appOps());
    c.push_back({"sim.sharded.epochs", 0});
    c.push_back({"sim.sharded.merged_events", 0});
    c.push_back({"sim.sharded.pgpromote_deferred", 0});
    return c;
}

/** One harness::collectViolations sweep = one checked operation. */
void
sweep(sim::Simulator &s, Check &check, const std::string &who)
{
    const auto violations = mclock::harness::collectViolations(s);
    check.expect(violations.empty(), who + ": invariant sweep");
    for (const auto &v : violations)
        check.messages.push_back(who + ": " + v);
}

// --- ycsb_seq ------------------------------------------------------------

Rep
runYcsbSeq(const RepOptions &o)
{
    using wl::YcsbWorkload;
    static constexpr std::pair<YcsbWorkload, const char *> kPhases[] = {
        {YcsbWorkload::A, "workloads.ycsb_A"},
        {YcsbWorkload::B, "workloads.ycsb_B"},
        {YcsbWorkload::C, "workloads.ycsb_C"},
        {YcsbWorkload::F, "workloads.ycsb_F"},
        {YcsbWorkload::W, "workloads.ycsb_W"},
        {YcsbWorkload::D, "workloads.ycsb_D"},
    };
    SpanLane *lane = laneOf(o, 0);
    Rep rep;

    const std::int64_t t0 = hostNowNs();
    sim::MachineConfig machine = harness::ycsbMachine();
    machine.seed = o.seed;
    wl::YcsbConfig cfg = harness::ycsbBenchConfig(o.sizes.ycsbOpsPerPhase);
    cfg.recordCount = o.sizes.ycsbRecords;
    cfg.seed = deriveSeed(o.seed, 1);
    sim::Simulator s(machine);
    s.setPolicy(makeMulticlock(lane));
    wl::YcsbDriver driver(s, cfg);
    {
        ScopedSpan span(lane, "workloads.load");
        driver.load();
    }

    const SimTime simStart = s.now();
    const std::uint64_t accStart = s.metrics().totalAccesses();
    const std::int64_t t1 = hostNowNs();
    for (const auto &[phase, name] : kPhases) {
        ScopedSpan span(lane, name);
        driver.run(phase);
    }
    const std::int64_t t2 = hostNowNs();

    rep.setupS = seconds(t0, t1);
    rep.runS = seconds(t1, t2);
    rep.simTimeNs = s.now() - simStart;
    rep.accesses = s.metrics().totalAccesses() - accStart;
    rep.counts = readCounts(s);

    // Every loaded record must still be readable (D only inserts).
    for (std::uint64_t k = 0; k < cfg.recordCount; ++k)
        rep.check.expect(driver.store().get(k),
                         "ycsb_seq: loaded key missing");
    sweep(s, rep.check, "ycsb_seq");
    return rep;
}

// --- gapbs_pr ------------------------------------------------------------

Rep
runGapbsPr(const RepOptions &o)
{
    SpanLane *lane = laneOf(o, 0);
    Rep rep;

    const std::int64_t t0 = hostNowNs();
    sim::MachineConfig machine = harness::gapbsMachine();
    machine.seed = o.seed;
    sim::Simulator s(machine);
    s.setPolicy(makeMulticlock(lane));
    std::unique_ptr<gapbs::Graph> graph;
    {
        ScopedSpan span(lane, "workloads.load");
        mclock::Rng rng(deriveSeed(o.seed, 2));
        auto edges = gapbs::makeKroneckerEdges(o.sizes.gapbsScale,
                                               o.sizes.gapbsDegree, rng);
        // As GapbsDriver does for PR: first-touch an arena the size of
        // the per-trial vertex arrays before the CSR, then release it,
        // so the hot arrays inherit those DRAM frames.
        gapbs::GNode maxId = 0;
        for (const auto &e : edges)
            maxId = std::max({maxId, e.u, e.v});
        const std::size_t arenaBytes =
            (static_cast<std::size_t>(maxId) + 1) * 16;
        const mclock::Vaddr arena =
            s.mmap(arenaBytes, true, "vertex-array-arena");
        for (std::size_t off = 0; off < arenaBytes; off += mclock::kPageSize)
            s.write(arena + off, 8);
        graph = gapbs::Builder::build(s, std::move(edges),
                                      gapbs::BuildOptions{});
        s.unmapRegion(arena);
    }

    const SimTime simStart = s.now();
    const std::uint64_t accStart = s.metrics().totalAccesses();
    const std::int64_t t1 = hostNowNs();
    std::vector<gapbs::PrResult> results;
    for (unsigned t = 0; t < o.sizes.prTrials; ++t) {
        ScopedSpan span(lane, "workloads.gapbs_pr");
        results.push_back(gapbs::pagerank(s, *graph, o.sizes.prIters));
    }
    const std::int64_t t2 = hostNowNs();

    rep.setupS = seconds(t0, t1);
    rep.runS = seconds(t1, t2);
    rep.simTimeNs = s.now() - simStart;
    rep.accesses = s.metrics().totalAccesses() - accStart;
    rep.counts = readCounts(s);

    // On a symmetric graph PageRank conserves the mass of non-isolated
    // vertices (k/n); each isolated vertex keeps only (1-d)/n.
    const std::size_t n = graph->numVertices();
    std::size_t linked = 0;
    for (std::size_t u = 0; u < n; ++u)
        linked += graph->peekDegree(static_cast<gapbs::GNode>(u)) > 0;
    const double expected =
        (static_cast<double>(linked) +
         0.15 * static_cast<double>(n - linked)) /
        static_cast<double>(n);
    for (const auto &r : results) {
        rep.check.expect(std::abs(r.scoreSum - expected) <= 1e-9,
                         "gapbs_pr: PageRank score sum off");
    }
    sweep(s, rep.check, "gapbs_pr");
    return rep;
}

// --- shard_kv ------------------------------------------------------------

/** Per-shard workload state; touched only by the shard's driver. */
struct ShardState
{
    ShardState(sim::Simulator &s, std::uint64_t records, std::uint64_t seed)
        : rng(seed), zipf(records),
          store(std::make_unique<wl::KvStore>(s))
    {
    }

    mclock::Rng rng;
    wl::ScrambledZipfianGenerator zipf;
    std::unique_ptr<wl::KvStore> store;
    /** The epoch's pre-drawn (key, is-read) pairs. */
    std::vector<std::pair<std::uint64_t, bool>> batch;
    std::uint64_t gets = 0;
    std::uint64_t misses = 0;
};

/**
 * Per-epoch worker load from the shard lanes: the k-th "shard.epoch"
 * span of a lane is that shard's epoch k; spans are grouped by the
 * worker thread that recorded them.
 */
std::vector<EpochLoad>
epochLoads(const SpanRecorder &spans, std::uint32_t run)
{
    std::vector<std::map<std::uint32_t, double>> perEpoch;
    for (std::size_t l = 1; l < spans.lanes(); ++l) {
        std::size_t k = 0;
        for (const Span &sp : spans.lane(l).spans()) {
            if (sp.run != run || std::string_view(sp.name) != "shard.epoch")
                continue;
            if (perEpoch.size() <= k)
                perEpoch.resize(k + 1);
            perEpoch[k++][sp.thread] += seconds(sp.start, sp.end);
        }
    }
    std::vector<EpochLoad> out;
    for (const auto &workers : perEpoch) {
        EpochLoad e;
        double sum = 0.0;
        for (const auto &[thread, busy] : workers) {
            e.busiestS = std::max(e.busiestS, busy);
            sum += busy;
        }
        e.meanS = workers.empty() ? 0.0
                                  : sum / static_cast<double>(workers.size());
        out.push_back(e);
    }
    return out;
}

Rep
runShardKv(const RepOptions &o)
{
    SpanLane *main = laneOf(o, 0);
    const Sizes &z = o.sizes;
    Rep rep;

    const std::int64_t t0 = hostNowNs();
    sim::ShardOptions opts;
    opts.shards = kShards;
    opts.workers = o.width;
    sim::ShardedSimulator host(shardHostMachine(o.seed), opts);
    std::vector<std::unique_ptr<ShardState>> shards;
    for (unsigned s = 0; s < host.shards(); ++s) {
        host.shard(s).setPolicy(makeMulticlock(laneOf(o, 1 + s)));
        shards.push_back(std::make_unique<ShardState>(
            host.shard(s), z.shardRecords, deriveSeed(o.seed, 16 + s)));
    }
    {
        // Load every shard's store in key order before the first
        // epoch, from this (the coordinator) thread.
        ScopedSpan span(main, "workloads.load");
        for (unsigned s = 0; s < host.shards(); ++s) {
            if (SpanLane *l = laneOf(o, 1 + s))
                l->setRootParent(span.id());
            for (std::uint64_t k = 0; k < z.shardRecords; ++k)
                shards[s]->store->put(k, kValueBytes);
        }
    }

    const SimTime simStart = host.makespan();
    std::uint64_t accStart = 0;
    for (unsigned s = 0; s < host.shards(); ++s)
        accStart += host.shard(s).metrics().totalAccesses();
    const std::int64_t t1 = hostNowNs();
    {
        ScopedSpan span(main, "sim.sharded.run");
        for (unsigned s = 0; s < host.shards(); ++s) {
            if (SpanLane *l = laneOf(o, 1 + s))
                l->setRootParent(span.id());
        }
        host.run([&](sim::Simulator &, unsigned s, std::uint64_t epoch) {
            ShardState &st = *shards[s];
            SpanLane *lane = laneOf(o, 1 + s);
            ScopedSpan epochSpan(lane, "shard.epoch");
            {
                // YCSB-A: 50/50 read-update over scrambled-zipfian keys,
                // drawn in the order the shard_bigmem scenario draws them.
                ScopedSpan keygen(lane, "workloads.keygen");
                st.batch.clear();
                for (std::uint64_t i = 0; i < z.shardOpsPerEpoch; ++i) {
                    const std::uint64_t key = st.zipf.next(st.rng);
                    st.batch.emplace_back(key, st.rng.nextRange(100) < 50);
                }
            }
            {
                ScopedSpan kv(lane, "workloads.kv");
                for (const auto &[key, read] : st.batch) {
                    if (read) {
                        ++st.gets;
                        st.misses += st.store->get(key) ? 0 : 1;
                    } else {
                        st.store->put(key, kValueBytes);
                    }
                }
            }
            return epoch + 1 < z.shardEpochs;
        });
    }
    const std::int64_t t2 = hostNowNs();

    rep.setupS = seconds(t0, t1);
    rep.runS = seconds(t1, t2);
    const sim::Metrics merged = host.mergedMetrics();
    const mclock::stats::VmStat vmstat = host.mergedVmstat();
    rep.simTimeNs = host.makespan() - simStart;
    rep.accesses = merged.totalAccesses() - accStart;
    std::uint64_t hits = 0, misses = 0, writebacks = 0;
    for (unsigned s = 0; s < host.shards(); ++s) {
        if (const mclock::CacheModel *llc = host.shard(s).llc()) {
            hits += llc->hits();
            misses += llc->misses();
            writebacks += llc->writebacks();
        }
    }
    rep.counts = readCounts(merged, vmstat, hits, misses, writebacks,
                            host.totalAppOps());
    rep.counts.push_back({"sim.sharded.epochs", host.epochs()});
    rep.counts.push_back({"sim.sharded.merged_events", host.events().size()});
    rep.counts.push_back({"sim.sharded.pgpromote_deferred",
                          vmstat.global(VmItem::PgpromoteDeferred)});
    if (o.spans)
        rep.epochs = epochLoads(*o.spans, o.run);

    // Every key a request reads was loaded, so a miss is a failure.
    for (unsigned s = 0; s < host.shards(); ++s) {
        rep.check.attempted += shards[s]->gets;
        rep.check.failed += shards[s]->misses;
        if (shards[s]->misses)
            rep.check.messages.push_back(
                "shard_kv: get of a loaded key missed");
        sweep(host.shard(s), rep.check, "shard" + std::to_string(s));
    }
    return rep;
}

}  // namespace

Sizes
Sizes::tiny()
{
    Sizes z;
    z.ycsbRecords = 2000;
    z.ycsbOpsPerPhase = 2000;
    z.gapbsScale = 10;
    z.gapbsDegree = 8;
    z.prTrials = 1;
    z.prIters = 2;
    z.shardRecords = 300;
    z.shardEpochs = 2;
    z.shardOpsPerEpoch = 500;
    z.llcReplayAccesses = 20000;
    return z;
}

std::string
Sizes::describe() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "ycsb_seq: records=%llu ops/phase=%llu phases=A,B,C,F,W,D; "
        "gapbs_pr: kron scale=%u degree=%u trials=%u iters=%u; "
        "shard_kv: shards=%u records/shard=%llu epochs=%llu "
        "ops/shard/epoch=%llu; llc replay accesses=%llu",
        static_cast<unsigned long long>(ycsbRecords),
        static_cast<unsigned long long>(ycsbOpsPerPhase), gapbsScale,
        gapbsDegree, prTrials, prIters, kShards,
        static_cast<unsigned long long>(shardRecords),
        static_cast<unsigned long long>(shardEpochs),
        static_cast<unsigned long long>(shardOpsPerEpoch),
        static_cast<unsigned long long>(llcReplayAccesses));
    return buf;
}

std::uint64_t
countOf(const Counts &counts, const std::string &name)
{
    for (const auto &[n, v] : counts) {
        if (n == name)
            return v;
    }
    return 0;
}

void
Check::expect(bool ok, std::string_view what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        messages.emplace_back(what);
    }
}

bool
parseWorkload(const std::string &name, WorkloadId &out)
{
    static const std::map<std::string, WorkloadId> kNames = {
        {"ycsb_seq", WorkloadId::YcsbSeq},
        {"gapbs_pr", WorkloadId::GapbsPr},
        {"shard_kv", WorkloadId::ShardKv},
    };
    const auto it = kNames.find(name);
    if (it == kNames.end())
        return false;
    out = it->second;
    return true;
}

std::size_t
spanLanes(WorkloadId w)
{
    return w == WorkloadId::ShardKv ? 1 + kShards : 1;
}

Rep
runRep(WorkloadId w, const RepOptions &opts)
{
    if (opts.spans)
        opts.spans->beginRun(opts.run);
    switch (w) {
      case WorkloadId::YcsbSeq: return runYcsbSeq(opts);
      case WorkloadId::GapbsPr: return runGapbsPr(opts);
      case WorkloadId::ShardKv: return runShardKv(opts);
    }
    return {};
}

double
llcReplayNsPerAccess(WorkloadId w, const RepOptions &o)
{
    const std::uint64_t n = o.sizes.llcReplayAccesses;
    mclock::CacheConfig cache;
    std::uint64_t records = 0;
    switch (w) {
      case WorkloadId::YcsbSeq:
        cache = harness::ycsbMachine().cache;
        records = o.sizes.ycsbRecords;
        break;
      case WorkloadId::GapbsPr:
        cache = harness::gapbsMachine().cache;
        break;
      case WorkloadId::ShardKv:
        cache = shardHostMachine(o.seed).cache;
        records = o.sizes.shardRecords;
        break;
    }

    // Addresses are 4-byte aligned; bit 0 carries the store flag.
    std::vector<std::uint64_t> stream;
    stream.reserve(n);
    if (records == 0) {
        // Streamed CSR edges: consecutive 4-byte neighbour ids.
        for (std::uint64_t i = 0; i < n; ++i)
            stream.push_back(i * 4);
    } else {
        // KvStore-shaped ops on scrambled-zipfian records: a bucket
        // probe, the item header and the value's second 512 B block;
        // half the ops are updates.
        constexpr std::uint64_t kItem = 1088, kBuckets = 1u << 15;
        constexpr std::uint64_t kHeap = std::uint64_t{1} << 30;
        mclock::Rng rng(deriveSeed(o.seed, 3));
        wl::ScrambledZipfianGenerator zipf(records);
        while (stream.size() + 3 <= n) {
            const std::uint64_t key = zipf.next(rng);
            const std::uint64_t store = rng.nextBool(0.5) ? 1 : 0;
            stream.push_back((wl::fnv1a64(key) % kBuckets) * 8);
            stream.push_back(kHeap + key * kItem);
            stream.push_back((kHeap + key * kItem + 512) | store);
        }
    }

    mclock::CacheModel model(cache);
    std::uint64_t hits = 0;
    const std::int64_t t0 = hostNowNs();
    for (const std::uint64_t a : stream)
        hits += model.access(a & ~std::uint64_t{1}, (a & 1) != 0).hit;
    const std::int64_t t1 = hostNowNs();
    if (hits > stream.size())  // keeps the results observable
        return -1.0;
    return static_cast<double>(t1 - t0) /
           static_cast<double>(std::max<std::size_t>(stream.size(), 1));
}

}  // namespace perfbench
