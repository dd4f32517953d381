#include "sim/simulator.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/shard_event.hh"
#include "vm/page.hh"

namespace mclock {
namespace sim {

Simulator::Simulator(MachineConfig cfg)
    : cfg_(std::move(cfg)),
      mem_(cfg_.nodes),
      llc_(cfg_.cache.enabled ? std::make_unique<CacheModel>(cfg_.cache)
                              : nullptr),
      faults_(cfg_.faults, cfg_.seed),
      migration_(mem_, cfg_.mem, llc_.get(), &faults_),
      metrics_(cfg_.metricsWindow, mem_.numNodes(), cfg_.mem.numTiers()),
      swap_(cfg_.swapPages),
      rng_(cfg_.seed),
      trace_(kTraceCapacity),
      belowLow_(mem_.numNodes(), false),
      promoteFailStreak_(mem_.numNodes(), 0),
      promoteThrottleUntil_(mem_.numNodes(), 0)
{
    // LLC tags are 32 bits (mem/cache.hh); every line must have one.
    const Paddr topLine = mem_.paddrEnd() - 1;
    if (llc_ && !llc_->tagFits(topLine)) {
        MCLOCK_FATAL("a %zu-byte, %u-way LLC has no 32-bit tag for "
                     "physical address %#llx: use fewer nodes or more "
                     "LLC sets",
                     cfg_.cache.sizeBytes, cfg_.cache.ways,
                     static_cast<unsigned long long>(topLine));
    }
    trace_.bindClock(&now_);
    // Snapshot the immutable topology for the access fast path: node
    // tiers and per-tier latencies never change after construction.
    nodeTier_.resize(mem_.numNodes());
    mem_.forEachNode([this](Node &node) {
        nodeTier_[static_cast<std::size_t>(node.id())] = node.tier();
    });
    tierLoadLat_.reserve(cfg_.mem.numTiers());
    tierStoreLat_.reserve(cfg_.mem.numTiers());
    for (std::size_t r = 0; r < cfg_.mem.numTiers(); ++r) {
        const auto &timing = cfg_.mem.timing(static_cast<TierRank>(r));
        tierLoadLat_.push_back(timing.loadLatency);
        tierStoreLat_.push_back(timing.storeLatency);
    }
    bottomTier_ = mem_.tierOrder().back();
    trackReaccess_ = mem_.numTiers() > 1;
    // Low-level subsystems (LRU lists) record through raw sinks so
    // pfra/ needs no dependency on the simulator.
    mem_.forEachNode([this](Node &node) {
        node.lists().attachStats(&vmstat(), &trace_, node.id());
    });
#ifdef MCLOCK_DEBUG_VM
    vmChecker_ = std::make_unique<debug::VmChecker>();
    vmChecker_->bindTrace(&trace_);
    vmChecker_->bindFaults(&faults_);
    mem_.forEachNode([this](Node &node) {
        node.lists().attachChecker(vmChecker_.get());
    });
    migration_.setChecker(vmChecker_.get());
#endif
    if (cfg_.stats.sampler) {
        sampler_ = std::make_unique<stats::VmstatSampler>(vmstat());
        // The sampler body charges no time and mutates no simulator
        // state, so registering it cannot change simulation results.
        daemons_.add("vmstat_sampler", kSamplerInterval,
                     [this](SimTime now) { sampler_->sample(now); });
    }
}

Simulator::~Simulator() = default;

void
Simulator::setPolicy(std::unique_ptr<policies::TieringPolicy> policy)
{
    MCLOCK_ASSERT(policy != nullptr);
    policy_ = std::move(policy);
    policy_->attach(*this);
    policyObservesAccess_ = policy_->observesMemoryAccess();
}

Vaddr
Simulator::mmap(std::size_t bytes, bool anon, const std::string &name,
                MemCgroupId memcg)
{
    return space_.mmap(bytes, anon, name, memcg);
}

void
Simulator::unmapRegion(Vaddr start)
{
    const Region *region = space_.regionOf(start);
    MCLOCK_ASSERT(region != nullptr && region->start == start);
    const PageNum first = pageNumOf(region->start);
    const PageNum last = pageNumOf(region->end() - 1);
    for (PageNum vpn = first; vpn <= last; ++vpn) {
        Page *pg = space_.lookup(vpn);
        if (!pg)
            continue;
        policy_->onPageFreed(pg);
        MCLOCK_ASSERT(!pg->onLru());
        if (pg->resident()) {
            if (llc_)
                llc_->invalidatePage(pg->paddr());
            memcg_.uncharge(pg->memcg(),
                            nodeTier_[static_cast<std::size_t>(pg->node())]);
            mem_.node(pg->node()).freeFrame(pg->paddr());
            pg->unplace();
        } else {
            // Discard the swapped-out copy. Not a page-in: the slot is
            // freed without any device read happening.
            swap_.releaseSlot(pg);
        }
#ifdef MCLOCK_DEBUG_VM
        vmChecker_->onPageDestroyed(pg);
#endif
        space_.destroyPage(vpn);
    }
    space_.munmap(start);
}

void
Simulator::readSupervised(Vaddr va, std::size_t bytes)
{
    ++appOps_;
    accessRange(va, bytes, false, true);
}

void
Simulator::writeSupervised(Vaddr va, std::size_t bytes)
{
    ++appOps_;
    accessRange(va, bytes, true, true);
}

void
Simulator::accessRange(Vaddr va, std::size_t bytes, bool write,
                       bool supervised)
{
    MCLOCK_ASSERT(bytes > 0);
    // Multi-byte operations (memcpy-style) touch every line of the
    // range; we sample one access per 512 B sub-block, which preserves
    // the per-page reference behaviour and the memory-boundedness of
    // large transfers without simulating all 64 B lines.
    constexpr Vaddr kStride = kAccessBlock;
    const Vaddr lastByte = va + bytes - 1;
    accessOnePage(va, write, supervised);
    for (Vaddr cursor = (va & ~(kStride - 1)) + kStride;
         cursor <= lastByte; cursor += kStride) {
        accessOnePage(cursor, write, supervised);
    }
}

void
Simulator::compute(SimTime duration)
{
    const SimTime target = now_ + duration;
    while (daemons_.nextDue() <= target) {
        advance(std::max(now_, daemons_.nextDue()) - now_);
        daemons_.runDue(now_);
    }
    advance(std::max(now_, target) - now_);
}

TierRank
Simulator::pageTier(const Page *page) const
{
    MCLOCK_ASSERT(page->resident());
    return mem_.node(page->node()).tier();
}

void
Simulator::chargeInline(SimTime t)
{
    advance(t);
    vmstat().add(stats::VmItem::InlineOverheadNs, kInvalidNode, t);
}

void
Simulator::chargeBackground(SimTime t)
{
    const auto charged = static_cast<SimTime>(
        static_cast<double>(t) * cfg_.mem.backgroundInterference);
    advance(charged);
    vmstat().add(stats::VmItem::BackgroundWorkNs, kInvalidNode, t);
}

void
Simulator::chargeScan(std::uint64_t pages)
{
    if (pages == 0)
        return;
    vmstat().add(stats::VmItem::PgscanCharged, kInvalidNode, pages);
    chargeBackground(pages * cfg_.mem.scanPerPageCost);
}

void
Simulator::chargeMigration(SimTime cost, ChargeMode mode,
                           SimTime inlinePortion)
{
    switch (mode) {
      case ChargeMode::Inline:
        chargeInline(cost);
        break;
      case ChargeMode::Background:
        // Even daemon-driven migrations interrupt the application: the
        // unmap/TLB-shootdown portion sends IPIs to every core running
        // the process, so that part lands on the critical path.
        inlinePortion = std::min(inlinePortion, cost);
        chargeInline(inlinePortion);
        chargeBackground(cost - inlinePortion);
        break;
      case ChargeMode::FaultPath:
        chargeInline(static_cast<SimTime>(
            static_cast<double>(cost) *
            cfg_.mem.faultPathMigrationMultiplier));
        break;
    }
}

MigrateResult
Simulator::migrateOnce(Page *page, NodeId dst, ChargeMode mode)
{
    MCLOCK_ASSERT(!page->onLru());
    const TierRank srcTier = pageTier(page);
    const NodeId srcNode = page->node();
    const int dir = mem_.node(dst).tier() - srcTier;
    trace_.record(stats::TraceEventType::MigrationStart, srcNode,
                  page->vpn(), static_cast<std::uint64_t>(dst));
    SimTime cost = 0;
    const MigrateResult r = migration_.migrate(page, dst, cost);
    if (!r.ok()) {
        if (r.outcome == MigrateOutcome::Aborted)
            chargeAbort(r, cost, mode, cfg_.mem.migrationFixedCost / 2,
                        page, srcNode);
        if (dir < 0)
            vmstat().add(stats::VmItem::PgpromoteFail, srcNode);
        else if (dir > 0)
            vmstat().add(stats::VmItem::PgdemoteFail, srcNode);
        return r;
    }
    const TierRank dstTier = mem_.node(dst).tier();
    chargeMigration(cost, mode, cfg_.mem.migrationFixedCost);
    // The charge moves with the page. Downward transfers always
    // succeed: pressure relief must work even for an over-cap group,
    // so only upward placement (promotePage, allocation) is gated.
    if (dstTier != srcTier)
        memcg_.transfer(page->memcg(), srcTier, dstTier);
    if (dstTier < srcTier) {
        // Kernel convention: pgpromote_success lands on the target node.
        notePromoted(page, dst);
        if (shardLog_) {
            shardLog_->append(ShardEventKind::Promote, now_, page->vpn(),
                              static_cast<std::uint64_t>(dst));
        }
    } else if (dstTier > srcTier) {
        noteDemoted(page, srcNode);
        if (shardLog_) {
            shardLog_->append(ShardEventKind::Demote, now_, page->vpn(),
                              static_cast<std::uint64_t>(dst));
        }
    }
    placeArrival(page, /*active=*/dstTier < srcTier);
    trace_.record(stats::TraceEventType::MigrationComplete, srcNode,
                  page->vpn(), static_cast<std::uint64_t>(dst));
    return r;
}

void
Simulator::chargeAbort(const MigrateResult &r, SimTime cost,
                       ChargeMode mode, SimTime shootdownInline,
                       const Page *page, NodeId node)
{
    // The burned partial work still costs time. Only aborts that
    // reached the shootdown sent IPIs (the inline part).
    const bool copyPhase = r.phase == FaultPhase::Copy;
    chargeMigration(cost, mode, copyPhase ? 0 : shootdownInline);
    vmstat().add(stats::VmItem::PgmigrateAbort, node);
    if (!copyPhase)
        vmstat().add(stats::VmItem::PgmigrateRollback, node);
    trace_.record(stats::TraceEventType::MigrationAbort, node, page->vpn(),
                  static_cast<std::uint64_t>(r.phase));
}

void
Simulator::notePromoted(Page *page, NodeId node)
{
    metrics_.recordPromotion(now_, page);
    vmstat().add(stats::VmItem::PgpromoteSuccess, node);
}

void
Simulator::noteDemoted(const Page *page, NodeId node)
{
    metrics_.recordDemotion(now_);
    vmstat().add(stats::VmItem::Pgdemote, node);
    if (page->memcg() != kRootMemcg)
        vmstat().add(stats::VmItem::PgtenantDemote, node);
}

void
Simulator::placeArrival(Page *page, bool active)
{
    page->setReferenced(false);
    page->setPromoteFlag(false);
    const bool anon = page->isAnon();
    mem_.node(page->node()).lists().add(
        page, active ? pfra::NodeLists::activeKind(anon)
                     : pfra::NodeLists::inactiveKind(anon));
}

bool
Simulator::migratePage(Page *page, NodeId dst, ChargeMode mode)
{
    return migrateOnce(page, dst, mode).ok();
}

void
Simulator::beginShardEpoch(std::uint64_t epoch, std::uint64_t grant)
{
    promoteBudget_ = grant;
    // Tenant promotion quotas refill on the same epoch cadence. All
    // deficit state is per-shard-local, so any worker width replays
    // the identical grant sequence.
    memcg_.beginEpoch();
    vmstat().add(stats::VmItem::ShardEpoch);
    trace_.record(stats::TraceEventType::ShardEpoch, kInvalidNode, epoch,
                  grant == kUnlimitedPromoteBudget ? 0 : grant);
}

bool
Simulator::promotionThrottled(NodeId node) const
{
    const auto id = static_cast<std::size_t>(node);
    return id < promoteThrottleUntil_.size() &&
           now_ < promoteThrottleUntil_[id];
}

void
Simulator::notePromoteSuccess(NodeId node)
{
    if (!faults_.enabled())
        return;
    promoteFailStreak_[static_cast<std::size_t>(node)] = 0;
}

void
Simulator::notePromoteAbort(NodeId node)
{
    if (!faults_.enabled())
        return;
    unsigned &streak = promoteFailStreak_[static_cast<std::size_t>(node)];
    if (++streak < cfg_.faults.throttleThreshold)
        return;
    // Graceful degradation: stop hammering a failing path and let the
    // node cool down before promoting from it again.
    streak = 0;
    const SimTime until = now_ + cfg_.faults.throttleCooldownNs;
    promoteThrottleUntil_[static_cast<std::size_t>(node)] = until;
    vmstat().add(stats::VmItem::PgpromoteThrottled, node);
    trace_.record(stats::TraceEventType::PromoteThrottle, node,
                  cfg_.faults.throttleThreshold, until);
}

bool
Simulator::tenantPromoteAllowed(const Page *page, TierRank dstTier)
{
    const MemCgroupId cg = page->memcg();
    if (cg == kRootMemcg) [[likely]]
        return true;
    if (memcg_.withinMax(cg, dstTier) && memcg_.hasPromoteCredit(cg))
        return true;
    vmstat().add(stats::VmItem::PgtenantPromoteDeferred, page->node());
    return false;
}

bool
Simulator::promotePage(Page *page, ChargeMode mode)
{
    TierRank up;
    if (!mem_.higherTier(pageTier(page), up))
        return false;
    const NodeId srcNode = page->node();
    if (promotionThrottled(srcNode))
        return false;
    if (promoteBudget_ == 0) {
        // Epoch promotion budget exhausted: defer until the next grant
        // (sharded coordination; see beginShardEpoch).
        vmstat().add(stats::VmItem::PgpromoteDeferred, srcNode);
        return false;
    }
    // Tenant QoS gate, layered under the shard seniority budget: a
    // tenant promotion must clear both its per-epoch quota and the
    // destination tier's hard cap.
    if (!tenantPromoteAllowed(page, up))
        return false;
    const MigrateResult r =
        migrateToTier(page, up, /*respectMin=*/false, mode);
    if (!r.ok()) {
        if (r.outcome == MigrateOutcome::Aborted)
            notePromoteAbort(srcNode);
        return false;
    }
    notePromoteSuccess(srcNode);
    if (promoteBudget_ != kUnlimitedPromoteBudget)
        --promoteBudget_;
    // Quota credits, like the shard budget, are spent on completed
    // promotions only — an aborted migration costs the tenant nothing.
    // tenantPromoteAllowed() held a credit in reserve above, so the
    // spend cannot fail here.
    const bool credited = memcg_.consumePromoteCredit(page->memcg());
    MCLOCK_ASSERT(credited);
    return true;
}

bool
Simulator::demotePage(Page *page, ChargeMode mode)
{
    TierRank down;
    if (!mem_.lowerTier(pageTier(page), down))
        return false;
    return migrateToTier(page, down, /*respectMin=*/true, mode).ok();
}

MigrateResult
Simulator::migrateToTier(Page *page, TierRank tier, bool respectMin,
                         ChargeMode mode)
{
    const NodeId srcNode = page->node();
    const stats::VmItem failItem = tier < pageTier(page)
                                       ? stats::VmItem::PgpromoteFail
                                       : stats::VmItem::PgdemoteFail;
    const unsigned maxAttempts =
        faults_.enabled() ? cfg_.faults.maxRetries + 1 : 1;
    for (unsigned attempt = 0;; ++attempt) {
        const NodeId dst = mem_.pickNodeWithSpace(tier, respectMin);
        if (dst == kInvalidNode) {
            // No free frame anywhere in the tier: the move failed
            // before a migration could start.
            vmstat().add(failItem, srcNode);
            MigrateResult none;
            none.outcome = MigrateOutcome::NoFrame;
            return none;
        }
        const MigrateResult r = migrateOnce(page, dst, mode);
        const bool retryable =
            r.outcome == MigrateOutcome::Aborted && !r.persistent;
        if (!retryable || attempt + 1 == maxAttempts)
            return r;
        vmstat().add(stats::VmItem::PgmigrateRetry, srcNode);
        chargeBackground(cfg_.faults.retryBackoffNs << attempt);
    }
}

bool
Simulator::exchangePages(Page *hot, Page *cold, ChargeMode mode)
{
    MCLOCK_ASSERT(!hot->onLru() && !cold->onLru());
    const TierRank hotSrc = pageTier(hot);
    const TierRank coldSrc = pageTier(cold);
    const NodeId hotNode = hot->node();
    const NodeId coldNode = cold->node();
    trace_.record(stats::TraceEventType::MigrationStart, hotNode,
                  hot->vpn(), static_cast<std::uint64_t>(coldNode));
    SimTime cost = 0;
    const MigrateResult r = migration_.exchange(hot, cold, cost);
    if (!r.ok()) {
        if (r.outcome == MigrateOutcome::Aborted)
            chargeAbort(r, cost, mode,
                        cfg_.mem.migrationFixedCost * 17 / 20, hot,
                        hotNode);
        return false;
    }
    chargeMigration(cost, mode, cfg_.mem.migrationFixedCost * 17 / 10);
    // Promotion/demotion (and pgexchange itself) only when the two
    // nodes sit on different tiers: a same-tier node-to-node exchange
    // moves no page up or down. Normally callers pass (lower-tier
    // page, upper-tier page); handle the reversed order too.
    if (hotSrc != coldSrc) {
        Page *upPage = hotSrc > coldSrc ? hot : cold;
        Page *downPage = upPage == hot ? cold : hot;
        // Both charges move with their page (an exchange is a paired
        // promote + demote). Like demotion, the transfer is forced:
        // exchanges stay quota-exempt because the paired demotion
        // releases exactly the capacity the promotion takes.
        const TierRank upperRank = std::min(hotSrc, coldSrc);
        const TierRank lowerRank = std::max(hotSrc, coldSrc);
        memcg_.transfer(upPage->memcg(), lowerRank, upperRank);
        memcg_.transfer(downPage->memcg(), upperRank, lowerRank);
        // The promoted page lands on the demoted page's source node
        // (they swapped frames), so one upper-tier node takes both the
        // pgpromote_success (kernel convention: the target node) and
        // the pgdemote (the demoted page's source).
        const NodeId upperNode = hotSrc > coldSrc ? coldNode : hotNode;
        vmstat().add(stats::VmItem::Pgexchange, hotNode);
        notePromoted(upPage, upperNode);
        noteDemoted(downPage, upperNode);
        if (shardLog_) {
            shardLog_->append(ShardEventKind::Exchange, now_,
                              upPage->vpn(), downPage->vpn());
        }
    }
    placeArrival(hot, /*active=*/true);
    placeArrival(cold, /*active=*/false);
    trace_.record(stats::TraceEventType::MigrationComplete, hotNode,
                  hot->vpn(), static_cast<std::uint64_t>(coldNode));
    return true;
}

void
Simulator::evictPage(Page *page)
{
    MCLOCK_ASSERT(!page->onLru());
    MCLOCK_ASSERT(page->resident());
#ifdef MCLOCK_DEBUG_VM
    vmChecker_->onEvict(page);
#endif
    if (!page->isAnon() || swap_.hasSpace()) {
        // Kernel semantics: pswpout counts swap-area writes, i.e.
        // anonymous pages only; a file-backed page is written back to
        // its file and shows up as a writeback instead.
        if (page->isAnon())
            vmstat().add(stats::VmItem::Pswpout, page->node());
        else
            vmstat().add(stats::VmItem::Pgwriteback, page->node());
        vmstat().add(stats::VmItem::Pgsteal, page->node());
        swap_.pageOut(page);
        chargeBackground(cfg_.mem.swapLatency);
        if (llc_)
            llc_->invalidatePage(page->paddr());
        memcg_.uncharge(page->memcg(),
                        nodeTier_[static_cast<std::size_t>(page->node())]);
        mem_.node(page->node()).freeFrame(page->paddr());
        page->unplace();
        page->setReferenced(false);
        page->setPromoteFlag(false);
        page->setPteReferenced(false);
    } else {
        // No swap space: in the kernel this path ends with the OOM
        // killer. We surface it as a fatal config error instead.
        MCLOCK_FATAL("out of memory: no swap space for eviction");
    }
}

void
Simulator::maybeReclaim(Node &node)
{
    if (inPressure_ || !policy_)
        return;
    vmstat().add(stats::VmItem::KswapdWake, node.id());
    trace_.record(stats::TraceEventType::KswapdWake, node.id(),
                  node.freeFrames());
    inPressure_ = true;
    policy_->handlePressure(node);
    inPressure_ = false;
}

void
Simulator::runDueDaemons()
{
    daemons_.runDue(now_);
}

std::size_t
Simulator::memcgReclaimTier(MemCgroup &cg, TierRank tier,
                            std::size_t want)
{
    TierRank down;
    if (!mem_.lowerTier(tier, down))
        return 0;
    std::size_t demoted = 0;
    std::uint64_t scanned = 0;
    for (NodeId nid : mem_.tier(tier)) {
        if (demoted >= want)
            break;
        auto &lists = mem_.node(nid).lists();
        for (bool anon : {true, false}) {
            auto &inactive =
                lists.list(pfra::NodeLists::inactiveKind(anon));
            // One CLOCK revolution at most: each tail page is looked
            // at once, rotating pages of other tenants back to the
            // head (their LRU order is preserved modulo the rotation).
            const std::size_t budget = inactive.size();
            for (std::size_t i = 0;
                 i < budget && demoted < want; ++i) {
                Page *pg = inactive.back();
                if (!pg)
                    break;
                ++scanned;
                if (pg->memcg() != cg.id() || pg->locked() ||
                    pg->unevictable()) {
                    lists.rotateToFront(pg);
                    continue;
                }
                pg->testAndClearPteReferenced();
                pg->setReferenced(false);
                lists.remove(pg);
                if (demotePage(pg, ChargeMode::Background))
                    ++demoted;
                else  // no space below: put the page back
                    lists.add(pg, pfra::NodeLists::inactiveKind(anon));
            }
        }
    }
    chargeScan(scanned);
    if (demoted) {
        vmstat().add(stats::VmItem::MemcgLimitReclaim, kInvalidNode,
                    demoted);
        trace_.record(stats::TraceEventType::MemcgReclaim, kInvalidNode,
                      cg.id(), demoted);
    }
    return demoted;
}

void
Simulator::accessOnePage(Vaddr va, bool write, bool supervised)
{
    if (daemons_.nextDue() <= now_) [[unlikely]]
        runDueDaemons();

    const PageNum vpn = pageNumOf(va);
    Page *pg = space_.lookup(vpn);
    if (!pg) [[unlikely]] {
        pg = handleMinorFault(vpn);
    } else if (!pg->resident()) [[unlikely]] {
        handleSwapIn(pg);
    }

    if (pg->hintPoisoned()) [[unlikely]] {
        pg->setHintPoisoned(false);
        chargeInline(cfg_.mem.hintFaultLatency);
        vmstat().add(stats::VmItem::PghintFault, pg->node());
        policy_->onHintFault(pg);
    }

    if (supervised) [[unlikely]]
        policy_->onSupervisedAccess(pg);

    bool llcHit = false;
    if (llc_) {
        const Paddr pa = pg->paddr() + (va & (kPageSize - 1));
        llcHit = llc_->access(pa, write).hit;
    }
    const TierRank tier = nodeTier_[static_cast<std::size_t>(pg->node())];
    metrics_.recordAccess(now_, tier, llcHit);
    if (llcHit) {
        if (pg->memcg() != kRootMemcg) [[unlikely]]
            memcg_.recordLatency(pg->memcg(), cfg_.cache.hitLatency);
        advance(cfg_.cache.hitLatency);
        return;
    }

    // Memory-visible access: the hardware walks the page table and sets
    // the PTE accessed (and on stores, dirty) bits.
    pg->markAccessed(write);
    pg->bumpAccessCount();
    pg->setLastAccess(now_);
    // Re-access tracking covers every tier a page can be promoted into,
    // i.e. everything above the bottom tier (just DRAM on two tiers).
    if (trackReaccess_ && tier != bottomTier_)
        metrics_.maybeRecordReaccess(now_, pg);

    const auto tierIdx = static_cast<std::size_t>(tier);
    SimTime lat = write ? tierStoreLat_[tierIdx] : tierLoadLat_[tierIdx];
    if (policyObservesAccess_) [[unlikely]] {
        policies::AccessContext ctx;
        ctx.va = va;
        ctx.write = write;
        policy_->onMemoryAccess(pg, ctx);
        if (ctx.latencyOverridden)
            lat = ctx.latency;
    }
    if (pg->memcg() != kRootMemcg) [[unlikely]]
        memcg_.recordLatency(pg->memcg(), lat);
    metrics_.recordMemLatency(tier, lat);
    advance(lat);
}

Page *
Simulator::handleMinorFault(PageNum vpn)
{
    Page *pg = space_.createPage(vpn);
    allocateFrameFor(pg);
    policy_->onPageAllocated(pg);
    const SimTime zeroFill = cfg_.mem.copyLatency(
        pageTier(pg), pageTier(pg), kPageSize);
    chargeInline(cfg_.mem.minorFaultLatency + zeroFill);
    return pg;
}

void
Simulator::handleSwapIn(Page *page)
{
    allocateFrameFor(page);
    swap_.pageIn(page);
    policy_->onPageAllocated(page);
    chargeInline(cfg_.mem.minorFaultLatency + cfg_.mem.swapLatency);
    vmstat().add(stats::VmItem::Pswpin, page->node());
}

void
Simulator::allocateFrameFor(Page *page)
{
    const MemCgroupId cg = page->memcg();
    for (int attempt = 0; attempt < 3; ++attempt) {
        NodeId nid = policy_->selectAllocationNode(*page);
        if (nid != kInvalidNode && cg != kRootMemcg &&
            !memcg_.withinMax(cg, mem_.node(nid).tier())) {
            // Hard cap hit on the policy's preferred tier: first try
            // to demote this tenant's own pages off it, then fall back
            // to a lower tier where the group still has headroom. If
            // neither works the page is placed over cap — a fault must
            // not fail, so the cap gates placement, not progress.
            const TierRank capped = mem_.node(nid).tier();
            memcgReclaimTier(*memcg_.find(cg), capped, 1);
            if (!memcg_.withinMax(cg, capped)) {
                TierRank down = capped;
                while (mem_.lowerTier(down, down)) {
                    if (!memcg_.withinMax(cg, down))
                        continue;
                    const NodeId alt =
                        mem_.pickNodeWithSpace(down, /*respectMin=*/true);
                    if (alt != kInvalidNode) {
                        vmstat().add(stats::VmItem::PgtenantAllocFallback,
                                    alt);
                        nid = alt;
                        break;
                    }
                }
            }
        }
        if (nid != kInvalidNode) {
            Node &node = mem_.node(nid);
            Paddr pa;
            if (node.allocFrame(pa)) {
                page->placeOn(nid, pa);
                memcg_.charge(cg, node.tier());
                // pgfault_dram counts faults placed on the rank-0
                // tier; pgfault_pm covers every lower tier.
                vmstat().add(node.tier() == 0
                                ? stats::VmItem::PgfaultDram
                                : stats::VmItem::PgfaultPm,
                            nid);
                // kswapd wakeup: the allocator noticed a node dipping
                // below its low watermark.
                mem_.forEachNode([this](Node &n) {
                    const auto id = static_cast<std::size_t>(n.id());
                    if (n.belowLow()) {
                        if (!belowLow_[id]) {
                            belowLow_[id] = true;
                            vmstat().add(
                                stats::VmItem::WatermarkLowCross, n.id());
                            trace_.record(
                                stats::TraceEventType::WatermarkCross,
                                n.id(), n.freeFrames());
                        }
                        maybeReclaim(n);
                    } else if (belowLow_[id] && n.aboveHigh()) {
                        // Hysteresis: re-arm only once the node has
                        // been refilled past the high watermark.
                        belowLow_[id] = false;
                    }
                });
                return;
            }
        }
        // Direct reclaim: push on the most-used node of the lowest tier.
        const TierRank lowest = mem_.tierOrder().back();
        Node *worst = nullptr;
        for (NodeId id : mem_.tier(lowest)) {
            Node &n = mem_.node(id);
            if (!worst || n.freeFrames() < worst->freeFrames())
                worst = &n;
        }
        MCLOCK_ASSERT(worst != nullptr);
        maybeReclaim(*worst);
    }
    MCLOCK_FATAL("allocation failed after direct reclaim (OOM)");
}

}  // namespace sim
}  // namespace mclock
