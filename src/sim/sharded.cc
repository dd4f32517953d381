#include "sim/sharded.hh"

#include <algorithm>
#include <limits>
#include <thread>

#include "base/hash.hh"
#include "base/logging.hh"

namespace mclock {
namespace sim {

namespace {

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
    cfg.seed = splitmix64(whole.seed, shard + 1);
    // A sharded host has no single sampler series to export, and one
    // per shard would only be thrown away.
    cfg.stats.sampler = false;
    return cfg;
}

ShardedSimulator::ShardedSimulator(const MachineConfig &whole,
                                   ShardOptions opts)
    : opts_(opts),
      sims_(makeShards(whole, opts)),
      trace_(kTraceCapacity)
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
    slots_.assign(shards, ShardSlot{});
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

bool
ShardedSimulator::runEpochOn(unsigned s, std::uint64_t epoch,
                             std::uint64_t grant,
                             const EpochDriver &driver)
{
    // Worker-side: shard-local state only. The promotion grant arrives
    // by value — reading grants_ here would be a -Wthread-safety error
    // (coordinator-guarded).
    sims_[s]->beginShardEpoch(epoch, grant);
    const bool more = driver(*sims_[s], s, epoch);
    logs_[s].closeEpoch(sims_[s]->now());
    return more;
}

void
ShardedSimulator::work(std::uint64_t phaseEnd,
                       const std::vector<std::uint64_t> &grants,
                       const EpochDriver &driver)
{
    const unsigned shards = this->shards();
    unsigned s = shards;  // no claim held
    std::uint64_t epoch = 0;
    bool more = false;
    for (;;) {
        {
            base::MutexLock lock(claimMu_);
            if (s < shards) {
                ShardSlot &done = slots_[s];
                done.active = more;
                done.busy = false;
                done.next = epoch + 1;
            }
            // Claim the idle, active shard furthest behind (ties to the
            // lowest shard). Nothing claimable means every remaining
            // epoch of the phase belongs to a busy shard, whose worker
            // claims on; so returning strands nothing.
            s = shards;
            for (unsigned t = 0; t < shards; ++t) {
                const ShardSlot &slot = slots_[t];
                if (slot.active && !slot.busy && slot.next < phaseEnd &&
                    (s == shards || slot.next < slots_[s].next))
                    s = t;
            }
            if (s == shards)
                return;
            slots_[s].busy = true;
            epoch = slots_[s].next;
        }
        more = runEpochOn(s, epoch, grants[s], driver);
    }
}

bool
ShardedSimulator::anyActive()
{
    base::MutexLock lock(claimMu_);
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const ShardSlot &slot) { return slot.active; });
}

void
ShardedSimulator::run(const EpochDriver &driver)
{
    // run() is the coordinator: it owns the merge state, which no
    // worker touches, and merges only after the workers it starts have
    // joined.
    coordinator_.assertHeld();
    MCLOCK_ASSERT(anyActive(),
                  "ShardedSimulator::run() called again after every "
                  "shard finished");

    // Grants depend on the merge only under a promote budget. Without
    // one they never change, so every epoch runs in one phase and the
    // helpers start once; with one, grant(e+1) needs merge(e), so each
    // phase is one epoch.
    const bool grantsFollowMerge = opts_.epochPromoteBudget > 0;
    std::uint64_t epoch = epochs_;
    do {
        const std::uint64_t phaseEnd =
            grantsFollowMerge ? epoch + 1
                              : std::numeric_limits<std::uint64_t>::max();
        // Snapshot the phase's grants before any helper starts, so
        // workers never read coordinator-owned grants_, which the
        // merge mutates.
        const std::vector<std::uint64_t> grants = grants_;
        {
            // mclock-lint: thread-ok(--shards helpers for one phase, joined at the brace; they touch only claimed shards)
            std::vector<std::jthread> helpers;
            helpers.reserve(workers_ - 1);
            for (unsigned w = 1; w < workers_; ++w)
                helpers.emplace_back(
                    [&] { work(phaseEnd, grants, driver); });
            work(phaseEnd, grants, driver);
        }  // the helpers join here: the end of the phase

        // Merge every epoch the phase ran, oldest first.
        while (std::any_of(logs_.begin(), logs_.end(),
                           [](const ShardEventLog &log) {
                               return log.closedEpochs() > 0;
                           }))
            mergeEpoch(epoch++);
    } while (anyActive());
    epochs_ = epoch;
}

void
ShardedSimulator::mergeEpoch(std::uint64_t epoch)
{
    const unsigned shards = this->shards();

    // Move each shard's slice of this epoch into events_ in shard
    // order; each slice is internally ordered already, so the sort
    // below is a k-way merge with unique (time, shard, seq) keys — one
    // total order, independent of drain or thread timing. The clock is
    // the epoch's makespan: a shard that has already stopped
    // contributes its final clock.
    const auto first = static_cast<std::ptrdiff_t>(events_.size());
    SimTime clock = 0;
    for (unsigned s = 0; s < shards; ++s) {
        if (logs_[s].closedEpochs() == 0) {
            clock = std::max(clock, sims_[s]->now());
            continue;
        }
        const ShardEpochSlice slice = logs_[s].takeEpoch();
        clock = std::max(clock, slice.end);
        events_.insert(events_.end(), slice.events.begin(),
                       slice.events.end());
    }
    const auto merged = events_.begin() + first;
    std::sort(merged, events_.end(), shardEventSenior);
    const auto count = static_cast<std::uint64_t>(events_.end() - merged);

    mergeClock_ = clock;
    coordVmstat_.add(stats::VmItem::PgshardMerge, kInvalidNode, count);
    trace_.record(stats::TraceEventType::ShardMerge, kInvalidNode, epoch,
                  count);

    // Seniority-weighted budget reallocation: the first B promotions
    // of the merged stream earn their shards the next epoch's credits
    // (floor one per shard, so a quiet shard can still start moving).
    const std::uint64_t budget = opts_.epochPromoteBudget;
    if (budget > 0) {
        std::vector<std::uint64_t> earned(shards, 0);
        std::uint64_t credited = 0;
        for (auto it = merged; it != events_.end(); ++it) {
            if (it->kind != ShardEventKind::Promote)
                continue;
            if (credited == budget)
                break;
            ++earned[it->shard];
            ++credited;
        }
        const std::uint64_t even =
            std::max<std::uint64_t>(1, budget / shards);
        for (unsigned s = 0; s < shards; ++s)
            grants_[s] = credited == 0
                             ? even
                             : std::max<std::uint64_t>(1, earned[s]);
    }
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
