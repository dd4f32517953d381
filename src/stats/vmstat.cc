#include "stats/vmstat.hh"

namespace mclock {
namespace stats {

const char *
vmItemName(VmItem item)
{
    switch (item) {
      case VmItem::PgscanActive:      return "pgscan_active";
      case VmItem::PgscanInactive:    return "pgscan_inactive";
      case VmItem::PgscanPromote:     return "pgscan_promote";
      case VmItem::PgpromoteSuccess:  return "pgpromote_success";
      case VmItem::PgpromoteFail:     return "pgpromote_fail";
      case VmItem::PgpromoteSelected: return "pgpromote_selected";
      case VmItem::Pgdemote:          return "pgdemote";
      case VmItem::PgdemoteFail:      return "pgdemote_fail";
      case VmItem::Pgexchange:        return "pgexchange";
      case VmItem::Pgsteal:           return "pgsteal";
      case VmItem::Pgactivate:        return "pgactivate";
      case VmItem::Pgdeactivate:      return "pgdeactivate";
      case VmItem::Pgrotated:         return "pgrotated";
      case VmItem::PgfaultDram:       return "pgfault_dram";
      case VmItem::PgfaultPm:         return "pgfault_pm";
      case VmItem::PghintFault:       return "pghint_fault";
      case VmItem::Pswpin:            return "pswpin";
      case VmItem::Pswpout:           return "pswpout";
      case VmItem::Pgwriteback:       return "pgwriteback";
      case VmItem::PgmigrateAbort:    return "pgmigrate_abort";
      case VmItem::PgmigrateRetry:    return "pgmigrate_retry";
      case VmItem::PgmigrateRollback: return "pgmigrate_rollback";
      case VmItem::PgpromoteThrottled:return "pgpromote_throttled";
      case VmItem::KswapdWake:        return "kswapd_wake";
      case VmItem::KpromotedWake:     return "kpromoted_wake";
      case VmItem::WatermarkLowCross: return "watermark_low_cross";
      case VmItem::PgshardMerge:      return "pgshard_merge";
      case VmItem::ShardEpoch:        return "shard_epoch";
      case VmItem::PgpromoteDeferred: return "pgpromote_deferred";
      case VmItem::MemcgLimitReclaim: return "memcg_limit_reclaim";
      case VmItem::PgtenantPromoteDeferred:
                                      return "pgtenant_promote_deferred";
      case VmItem::PgtenantDemote:    return "pgtenant_demote";
      case VmItem::PgtenantAllocFallback:
                                      return "pgtenant_alloc_fallback";
      case VmItem::PgscanCharged:     return "pgscan_charged";
      case VmItem::NumaPteUpdates:    return "numa_pte_updates";
      case VmItem::NumaPagesMigrated: return "numa_pages_migrated";
      case VmItem::InlineOverheadNs:  return "inline_overhead_ns";
      case VmItem::BackgroundWorkNs:  return "background_work_ns";
      case VmItem::NumItems:          break;
    }
    return "unknown";
}

std::uint64_t
VmStat::get(std::string_view name) const
{
    owner_.assertHeld();
    for (std::size_t i = 0; i < kNumVmItems; ++i) {
        if (name == vmItemName(static_cast<VmItem>(i)))
            return global_[i];
    }
    return 0;
}

void
VmStat::resize(std::size_t numNodes)
{
    owner_.assertHeld();
    perNode_.resize(numNodes);
}

std::uint64_t
VmStat::nodeSum(VmItem item) const
{
    owner_.assertHeld();
    std::uint64_t sum = 0;
    for (const auto &node : perNode_)
        sum += node[static_cast<std::size_t>(item)];
    return sum;
}

void
VmStat::mergeFrom(const VmStat &other)
{
    // The reducing thread (sharded coordinator, harness reduce step)
    // owns both instances once the join barrier has passed.
    owner_.assertHeld();
    other.owner_.assertHeld();
    for (std::size_t i = 0; i < kNumVmItems; ++i)
        global_[i] += other.global_[i];
    if (perNode_.size() < other.perNode_.size())
        perNode_.resize(other.perNode_.size());
    for (std::size_t n = 0; n < other.perNode_.size(); ++n) {
        for (std::size_t i = 0; i < kNumVmItems; ++i)
            perNode_[n][i] += other.perNode_[n][i];
    }
}

std::map<std::string, std::uint64_t>
VmStat::snapshot() const
{
    owner_.assertHeld();
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < kNumVmItems; ++i) {
        const auto item = static_cast<VmItem>(i);
        out[vmItemName(item)] = global_[i];
        for (std::size_t n = 0; n < perNode_.size(); ++n) {
            if (perNode_[n][i] == 0)
                continue;
            out["node" + std::to_string(n) + "." + vmItemName(item)] =
                perNode_[n][i];
        }
    }
    return out;
}

}  // namespace stats
}  // namespace mclock
