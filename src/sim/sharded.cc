#include "sim/sharded.hh"

#include <algorithm>
#include <thread>

#include "base/logging.hh"

namespace mclock {
namespace sim {

namespace {

/** splitmix64 finalizer: independent per-shard seed streams. */
std::uint64_t
shardSeed(std::uint64_t base, unsigned shard)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (shard + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::unique_ptr<Simulator>>
makeShards(const MachineConfig &whole, const ShardOptions &opts)
{
    const unsigned shards = std::max(1u, opts.shards);
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        sims.push_back(std::make_unique<Simulator>(
            shardMachine(whole, shards, s)));
    return sims;
}

}  // namespace

MachineConfig
shardMachine(const MachineConfig &whole, unsigned shards, unsigned shard)
{
    MCLOCK_ASSERT(shards >= 1);
    MCLOCK_ASSERT(shard < shards);
    MachineConfig cfg = whole;
    if (shards == 1)
        return cfg;
    // Partition whole pages, handing remainder pages to the
    // low-numbered shards: summing any node's capacity (or the swap
    // slots) over all S shards reproduces the whole machine exactly,
    // instead of silently dropping up to S-1 pages per node to the
    // floor of bytes/S.
    for (auto &node : cfg.nodes) {
        const std::size_t totalPages = node.bytes / kPageSize;
        std::size_t share =
            totalPages / shards + (shard < totalPages % shards ? 1 : 0);
        node.bytes = std::max<std::size_t>(share, 1) * kPageSize;
    }
    if (cfg.swapPages) {
        cfg.swapPages = std::max<std::size_t>(
            1, cfg.swapPages / shards +
                   (shard < cfg.swapPages % shards ? 1 : 0));
    }
    cfg.seed = shardSeed(whole.seed, shard);
    return cfg;
}

ShardedSimulator::ShardedSimulator(const MachineConfig &whole,
                                   ShardOptions opts)
    : opts_(opts),
      sims_(makeShards(whole, opts)),
      trace_(whole.stats.traceCapacity)
{
    const unsigned shards = this->shards();
    workers_ = std::max(1u, std::min(opts.workers == 0 ? 1u
                                                       : opts.workers,
                                     shards));
    // Bind once and never resize again: the simulators hold raw
    // pointers into this vector.
    logs_.resize(shards);
    for (unsigned s = 0; s < shards; ++s) {
        logs_[s].bind(s);
        sims_[s]->bindShardLog(&logs_[s]);
    }
    const std::uint64_t budget = opts_.epochPromoteBudget;
    grants_.assign(shards,
                   budget == 0
                       ? Simulator::kUnlimitedPromoteBudget
                       : std::max<std::uint64_t>(1, budget / shards));
    active_.assign(shards, 1);
    coordVmstat_.resize(sims_.front()->config().nodes.size());
    trace_.bindClock(&mergeClock_);
}

ShardedSimulator::~ShardedSimulator()
{
    // Detach the logs before they are destroyed (defensive; the
    // simulators die in the same destructor, but member order is an
    // implementation detail we'd rather not lean on).
    for (auto &sim : sims_)
        sim->bindShardLog(nullptr);
}

void
ShardedSimulator::runEpochOn(unsigned s, std::uint64_t epoch,
                             std::uint64_t grant,
                             const EpochDriver &driver)
{
    // Worker-side: shard-local state plus this shard's active_ element
    // only. The promotion grant arrives by value — reading grants_
    // here would be a -Wthread-safety error (coordinator-guarded).
    sims_[s]->beginShardEpoch(epoch, grant);
    active_[s] = driver(*sims_[s], s, epoch) ? 1 : 0;
}

void
ShardedSimulator::run(const EpochDriver &driver)
{
    // run() is the coordinator: it owns the merge state between the
    // join barriers it itself erects.
    coordinator_.assertHeld();
    const unsigned shards = this->shards();
    std::uint64_t epoch = epochs_;
    for (;;) {
        bool any = false;
        for (unsigned s = 0; s < shards; ++s)
            any = any || active_[s];
        if (!any)
            break;

        // Static round-robin shard ownership: worker w drives shards
        // w, w+W, ... in shard order, and the calling thread is worker
        // 0 (width 1 starts no thread at all). No work queue, no shared
        // mutable state below the join barrier: the epoch's grants are
        // snapshotted here, before any helper starts, so workers never
        // read coordinator-owned grants_, which a merge-path mutation
        // could otherwise race.
        const std::vector<std::uint64_t> grants = grants_;
        const auto drive = [this, epoch, &driver, &grants,
                            shards](unsigned w) {
            for (unsigned s = w; s < shards; s += workers_) {
                if (active_[s])
                    runEpochOn(s, epoch, grants[s], driver);
            }
        };
        {
            std::vector<std::jthread> helpers;
            helpers.reserve(workers_ - 1);
            for (unsigned w = 1; w < workers_; ++w)
                helpers.emplace_back(drive, w);
            drive(0);
        }  // the helpers join here: the epoch barrier

        mergeEpoch(epoch);
        ++epoch;
    }
    epochs_ = epoch;
}

void
ShardedSimulator::mergeEpoch(std::uint64_t epoch)
{
    const unsigned shards = this->shards();

    // Drain in shard order; each log is internally ordered already, so
    // the sort below is a k-way merge with unique (time, shard, seq)
    // keys — one total order, independent of drain or thread timing.
    std::vector<ShardEvent> merged;
    for (unsigned s = 0; s < shards; ++s) {
        auto drained = logs_[s].drain();
        merged.insert(merged.end(), drained.begin(), drained.end());
    }
    std::sort(merged.begin(), merged.end(), shardEventSenior);

    mergeClock_ = makespan();
    coordVmstat_.add(stats::VmItem::PgshardMerge, kInvalidNode,
                     merged.size());
    trace_.record(stats::TraceEventType::ShardMerge, kInvalidNode, epoch,
                  merged.size());

    // Seniority-weighted budget reallocation: the first B promotions
    // of the merged stream earn their shards the next epoch's credits
    // (floor one per shard, so a quiet shard can still start moving).
    const std::uint64_t budget = opts_.epochPromoteBudget;
    if (budget > 0) {
        std::vector<std::uint64_t> earned(shards, 0);
        std::uint64_t credited = 0;
        for (const ShardEvent &ev : merged) {
            if (ev.kind != ShardEventKind::Promote)
                continue;
            if (credited == budget)
                break;
            ++earned[ev.shard];
            ++credited;
        }
        const std::uint64_t even =
            std::max<std::uint64_t>(1, budget / shards);
        for (unsigned s = 0; s < shards; ++s)
            grants_[s] = credited == 0
                             ? even
                             : std::max<std::uint64_t>(1, earned[s]);
    }

    events_.insert(events_.end(), merged.begin(), merged.end());
}

SimTime
ShardedSimulator::makespan() const
{
    SimTime t = 0;
    for (const auto &sim : sims_)
        t = std::max(t, sim->now());
    return t;
}

std::uint64_t
ShardedSimulator::totalAppOps() const
{
    std::uint64_t sum = 0;
    for (const auto &sim : sims_)
        sum += sim->appOps();
    return sum;
}

stats::VmStat
ShardedSimulator::mergedVmstat() const
{
    return mergedMetrics().stats();
}

Metrics
ShardedSimulator::mergedMetrics() const
{
    Metrics out(sims_.front()->config().metricsWindow);
    out.stats().mergeFrom(coordVmstat_);
    for (const auto &sim : sims_) {
        out.presizeTiers(sim->config().mem.numTiers());
        out.mergeFrom(sim->metrics());
    }
    return out;
}

}  // namespace sim
}  // namespace mclock
