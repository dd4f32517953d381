#include "harness/invariants.hh"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "pfra/lru_lists.hh"
#include "sim/memory_system.hh"
#include "sim/node.hh"
#include "sim/simulator.hh"
#include "stats/vmstat.hh"
#include "vm/address_space.hh"
#include "vm/memcg.hh"
#include "vm/page.hh"
#include "vm/swap.hh"

#ifdef MCLOCK_DEBUG_VM
#include "debug/vm_checker.hh"
#endif

namespace mclock {
namespace harness {

namespace {

void
violation(std::vector<std::string> &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out.emplace_back(buf);
}

}  // namespace

std::vector<std::string>
collectViolations(sim::Simulator &sim)
{
    std::vector<std::string> out;
    auto &mem = sim.memory();
    const std::size_t numNodes = mem.numNodes();

    // Pass 1: walk the address space, counting residency per node.
    std::vector<std::size_t> residentPerNode(numNodes, 0);
    std::size_t resident = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (!pg->resident()) {
            if (pg->onLru()) {
                violation(out,
                          "non-resident page vpn=%llu on list %d",
                          static_cast<unsigned long long>(pg->vpn()),
                          static_cast<int>(pg->list()));
            }
            return;
        }
        ++resident;
        const auto node = static_cast<std::size_t>(pg->node());
        if (node >= numNodes) {
            // Single-residency: the one node field must name a real
            // node; an out-of-range id would mean a torn placement.
            violation(out, "resident page vpn=%llu on bogus node %zu",
                      static_cast<unsigned long long>(pg->vpn()), node);
            return;
        }
        ++residentPerNode[node];
    });

    // Pass 2: per-node frame accounting and occupancy bounds.
    std::size_t onLists = 0;
    mem.forEachNode([&](sim::Node &node) {
        const auto id = static_cast<std::size_t>(node.id());
        if (node.usedFrames() > node.totalFrames()) {
            violation(out, "node %zu occupancy %zu exceeds capacity %zu",
                      id, node.usedFrames(), node.totalFrames());
        }
        if (node.usedFrames() != residentPerNode[id]) {
            violation(out,
                      "node %zu frame leak: %zu frames used but %zu "
                      "resident pages placed",
                      id, node.usedFrames(), residentPerNode[id]);
        }
        onLists += node.lists().totalPages();

        // Pass 3: list discipline — tags match, anonymity matches the
        // list family, and promote-list pages carry PagePromote (the
        // selection evidence shrink_promote_list consumes).
        for (int k = 1; k < kNumLruLists; ++k) {
            const auto kind = static_cast<LruListKind>(k);
            for (Page *pg : node.lists().list(kind)) {
                if (pg->list() != kind) {
                    violation(out,
                              "page vpn=%llu on list %d but tagged %d",
                              static_cast<unsigned long long>(pg->vpn()),
                              k, static_cast<int>(pg->list()));
                }
                if (pg->node() != node.id()) {
                    violation(out,
                              "page vpn=%llu on node %zu's list but "
                              "placed on node %d",
                              static_cast<unsigned long long>(pg->vpn()),
                              id, static_cast<int>(pg->node()));
                }
                if (kind != LruListKind::Unevictable) {
                    const bool anonList =
                        kind == LruListKind::InactiveAnon ||
                        kind == LruListKind::ActiveAnon ||
                        kind == LruListKind::PromoteAnon;
                    if (pg->isAnon() != anonList) {
                        violation(out,
                                  "page vpn=%llu anonymity mismatch on "
                                  "list %d",
                                  static_cast<unsigned long long>(
                                      pg->vpn()),
                                  k);
                    }
                }
                if (isPromoteList(kind) && !pg->promoteFlag()) {
                    violation(out,
                              "page vpn=%llu on promote list without "
                              "PagePromote set",
                              static_cast<unsigned long long>(pg->vpn()));
                }
            }
        }
    });

#ifdef MCLOCK_DEBUG_VM
    // Debug builds add the lockdep-style sweep: linkage validity and
    // shadow-state agreement on every list of every node.
    auto &checker = sim.vmChecker();
    mem.forEachNode([&](sim::Node &node) {
        for (int k = 1; k < kNumLruLists; ++k) {
            const auto kind = static_cast<LruListKind>(k);
            std::vector<debug::Violation> found;
            checker.validateList(node.lists().list(kind), kind,
                                 node.id(), &found);
            for (const auto &v : found) {
                violation(out, "debug_vm %s: %s",
                          debug::violationName(v.code),
                          v.detail.c_str());
            }
        }
    });
#endif

    // A resident page sits on exactly one list; isolated (mid-migration)
    // pages never survive to a quiescent point.
    if (onLists != resident) {
        violation(out,
                  "list membership mismatch: %zu pages on lists, %zu "
                  "resident",
                  onLists, resident);
    }
    for (auto &v : collectCounterViolations(sim))
        out.push_back(std::move(v));
    return out;
}

std::vector<std::string>
collectCounterViolations(sim::Simulator &sim)
{
    using stats::VmItem;
    std::vector<std::string> out;
    const auto &vm = sim.vmstat();
    const auto count = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    std::size_t resident = 0;
    std::size_t swappedAnon = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (pg->resident())
            ++resident;
        else if (pg->isAnon())
            ++swappedAnon;
    });

    // Frames: every frame a page holds came from a counted fault
    // (minor or swap-in) and was not since stolen; unmap frees the
    // rest, so the walk can only fall short of the counters.
    const std::uint64_t faults = vm.global(VmItem::PgfaultDram) +
                                 vm.global(VmItem::PgfaultPm);
    const std::uint64_t steals = vm.global(VmItem::Pgsteal);
    if (steals > faults || resident > faults - steals) {
        violation(out,
                  "fault accounting: %zu resident pages but pgfault %llu "
                  "- pgsteal %llu",
                  resident, count(faults), count(steals));
    }

    // The Fig. 8 window series must add up to the run totals.
    std::uint64_t windowPromotions = 0;
    std::uint64_t windowDemotions = 0;
    for (const auto &w : sim.metrics().windows()) {
        windowPromotions += w.promotions;
        windowDemotions += w.demotions;
    }
    if (windowPromotions != vm.global(VmItem::PgpromoteSuccess) ||
        windowDemotions != vm.global(VmItem::Pgdemote)) {
        violation(out,
                  "metrics windows sum to %llu promotions / %llu "
                  "demotions but pgpromote_success %llu / pgdemote %llu",
                  count(windowPromotions), count(windowDemotions),
                  count(vm.global(VmItem::PgpromoteSuccess)),
                  count(vm.global(VmItem::Pgdemote)));
    }

    // LRU scans are charged: page-table profiling passes (AMP's full
    // scan, AutoTiering's poison cursor) are charged without being
    // list scans, so the list counts can only fall short.
    const std::uint64_t pgscan = vm.global(VmItem::PgscanActive) +
                                 vm.global(VmItem::PgscanInactive) +
                                 vm.global(VmItem::PgscanPromote);
    if (pgscan > vm.global(VmItem::PgscanCharged)) {
        violation(out,
                  "pgscan_active+inactive+promote %llu over "
                  "pgscan_charged %llu",
                  count(pgscan), count(vm.global(VmItem::PgscanCharged)));
    }

    // Node attribution: these items always name the node involved.
    for (VmItem item : {VmItem::PgscanActive, VmItem::PgscanInactive,
                        VmItem::PgscanPromote, VmItem::PgpromoteSuccess,
                        VmItem::Pgdemote, VmItem::Pgsteal,
                        VmItem::PgfaultDram, VmItem::PgfaultPm,
                        VmItem::Pswpin, VmItem::Pswpout,
                        VmItem::Pgwriteback, VmItem::PgmigrateAbort,
                        VmItem::PgmigrateRetry, VmItem::PgmigrateRollback,
                        VmItem::PgpromoteThrottled, VmItem::KswapdWake}) {
        if (vm.nodeSum(item) != vm.global(item)) {
            violation(out,
                      "per-node %s sums to %llu, not the global %llu",
                      stats::vmItemName(item), count(vm.nodeSum(item)),
                      count(vm.global(item)));
        }
    }

    // Tier topology: every node belongs to exactly one rank bucket, the
    // rank buckets partition the machine, and per-tier frame occupancy
    // reconciles with the per-node books for every tier present.
    auto &mem = sim.memory();
    std::size_t bucketNodes = 0;
    std::size_t bucketTotal = 0;
    std::size_t bucketUsed = 0;
    for (TierRank rank : mem.tierOrder()) {
        std::size_t tierTotal = 0;
        std::size_t tierUsed = 0;
        std::size_t tierFree = 0;
        for (NodeId id : mem.tier(rank)) {
            const auto &node = mem.node(id);
            if (node.tier() != rank) {
                violation(out,
                          "node %d in tier %d's bucket but placed on "
                          "tier %d",
                          static_cast<int>(id), rank, node.tier());
            }
            ++bucketNodes;
            tierTotal += node.totalFrames();
            tierUsed += node.usedFrames();
            tierFree += node.freeFrames();
        }
        if (tierTotal != tierUsed + tierFree) {
            violation(out,
                      "tier %d occupancy mismatch: %zu frames total but "
                      "%zu used + %zu free",
                      rank, tierTotal, tierUsed, tierFree);
        }
        bucketTotal += tierTotal;
        bucketUsed += tierUsed;
    }
    std::size_t machineTotal = 0;
    std::size_t machineUsed = 0;
    mem.forEachNode([&](sim::Node &node) {
        machineTotal += node.totalFrames();
        machineUsed += node.usedFrames();
    });
    if (bucketNodes != mem.numNodes()) {
        violation(out,
                  "tier buckets cover %zu nodes but the machine has %zu",
                  bucketNodes, mem.numNodes());
    }
    if (bucketTotal != machineTotal || bucketUsed != machineUsed) {
        violation(out,
                  "tier occupancy sums (%zu/%zu used/total) diverge from "
                  "node totals (%zu/%zu)",
                  bucketUsed, bucketTotal, machineUsed, machineTotal);
    }

    // Swap slots: every swapped-out anonymous page in the walk holds
    // exactly one slot, and every slot a pswpout took is still held,
    // was freed by a page-in, or was released at unmap — exactly once
    // each. A double-release or a leaked slot breaks the identity.
    const auto &swap = sim.swap();
    if (swappedAnon != swap.usedSlots()) {
        violation(out,
                  "swap slots: %zu swapped-out anonymous pages but %zu "
                  "slots held",
                  swappedAnon, swap.usedSlots());
    }
    if (vm.global(VmItem::Pswpout) !=
        swap.usedSlots() + swap.slotFrees() + swap.slotReleases()) {
        violation(out,
                  "swap slot conservation: pswpout %llu != %zu held + "
                  "%llu freed by page-in + %llu released at unmap",
                  count(vm.global(VmItem::Pswpout)), swap.usedSlots(),
                  count(swap.slotFrees()), count(swap.slotReleases()));
    }

    // Memcg charge conservation: each tenant's per-tier charge equals
    // the resident pages the walk actually finds tagged with it. A
    // drifting charge means a charge/uncharge/transfer hook was missed
    // on some migration, eviction, or rollback path.
    if (sim.memcg().active()) {
        std::map<std::pair<MemCgroupId, TierRank>, std::size_t> walked;
        sim.space().forEachPage([&](Page *pg) {
            if (!pg->resident() || pg->memcg() == kRootMemcg)
                return;
            const auto &node =
                mem.node(static_cast<NodeId>(pg->node()));
            ++walked[{pg->memcg(), node.tier()}];
        });
        sim.memcg().forEach([&](const MemCgroup &cg) {
            for (TierRank rank : mem.tierOrder()) {
                const std::size_t counted = walked.count({cg.id(), rank})
                                                ? walked[{cg.id(), rank}]
                                                : 0;
                if (cg.charged(rank) != counted) {
                    violation(out,
                              "memcg %s charge drift on tier %d: %zu "
                              "charged but %zu resident pages tagged",
                              cg.name().c_str(), rank, cg.charged(rank),
                              counted);
                }
            }
        });
    }
    return out;
}

}  // namespace harness
}  // namespace mclock
