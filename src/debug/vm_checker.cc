#include "debug/vm_checker.hh"

#include <sstream>

#include "base/logging.hh"

namespace mclock {
namespace debug {

const char *
violationName(ViolationCode code)
{
    switch (code) {
      case ViolationCode::DoubleAdd: return "double_add";
      case ViolationCode::RemoveOffList: return "remove_off_list";
      case ViolationCode::IllegalTransition: return "illegal_transition";
      case ViolationCode::BadReentry: return "bad_reentry";
      case ViolationCode::FamilyMismatch: return "family_mismatch";
      case ViolationCode::FlagMismatch: return "flag_mismatch";
      case ViolationCode::NodeMismatch: return "node_mismatch";
      case ViolationCode::NonResidentOnList: return "non_resident_on_list";
      case ViolationCode::ShadowDivergence: return "shadow_divergence";
      case ViolationCode::PoisonedPromote: return "poisoned_promote";
      case ViolationCode::LockedRemap: return "locked_remap";
      case ViolationCode::ListCorruption: return "list_corruption";
      case ViolationCode::NumCodes: break;
    }
    return "?";
}

VmChecker::VmChecker(std::size_t historyCapacity)
    : historyCapacity_(historyCapacity)
{
    history_.reserve(historyCapacity_);
}

void
VmChecker::setHandler(Handler handler)
{
    handler_ = std::move(handler);
}

void
VmChecker::recordHistory(const Page *page, NodeId node, LruListKind from,
                         LruListKind to, const char *op)
{
    if (historyCapacity_ == 0)
        return;
    StateHistoryEntry e;
    e.page = page;
    e.vpn = page ? page->vpn() : 0;
    e.node = node;
    e.from = from;
    e.to = to;
    e.op = op;
    ++historyRecorded_;
    if (history_.size() < historyCapacity_) {
        history_.push_back(e);
        return;
    }
    history_[historyHead_] = e;
    historyHead_ = (historyHead_ + 1) % historyCapacity_;
}

std::vector<StateHistoryEntry>
VmChecker::historyFor(const Page *page) const
{
    std::vector<StateHistoryEntry> out;
    const std::size_t n = history_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto &e = history_[(historyHead_ + i) % n];
        if (e.page == page)
            out.push_back(e);
    }
    return out;
}

std::string
VmChecker::formatDump(const Violation &v) const
{
    std::ostringstream os;
    os << "DEBUG_VM violation: " << violationName(v.code) << " — "
       << v.detail << "\n";
    if (v.page) {
        os << "  page vpn=" << v.vpn << " node=" << v.node
           << " list=" << lruListName(v.page->list())
           << (v.page->isAnon() ? " anon" : " file")
           << (v.page->resident() ? " resident" : " !resident")
           << (v.page->promoteFlag() ? " promote" : "")
           << (v.page->unevictable() ? " unevictable" : "")
           << (v.page->locked() ? " locked" : "") << "\n";
        os << "  state history (oldest first):\n";
        const auto hist = historyFor(v.page);
        if (hist.empty())
            os << "    <none recorded>\n";
        for (const auto &e : hist) {
            os << "    " << e.op << " " << lruListName(e.from) << " -> "
               << lruListName(e.to) << " node=" << e.node << "\n";
        }
        if (trace_ && trace_->enabled()) {
            os << "  tracepoints touching vpn " << v.vpn << ":\n";
            bool any = false;
            for (const auto &ev : trace_->events()) {
                // Migration and rotation events carry the vpn in arg0;
                // other event types are not page-scoped.
                switch (ev.type) {
                  case stats::TraceEventType::MigrationStart:
                  case stats::TraceEventType::MigrationComplete:
                  case stats::TraceEventType::MigrationAbort:
                  case stats::TraceEventType::ListRotation:
                    break;
                  default:
                    continue;
                }
                if (ev.arg0 != v.vpn)
                    continue;
                any = true;
                os << "    t=" << ev.time << " "
                   << stats::traceEventName(ev.type)
                   << " node=" << ev.node << " arg1=" << ev.arg1 << "\n";
            }
            if (!any)
                os << "    <none in ring>\n";
        }
    }
    return os.str();
}

void
VmChecker::report(ViolationCode code, const Page *page, NodeId node,
                  std::string detail, std::vector<Violation> *sink)
{
    ++violations_;
    Violation v;
    v.code = code;
    v.page = page;
    v.vpn = page ? page->vpn() : 0;
    v.node = node;
    v.detail = std::move(detail);
    if (sink) {
        sink->push_back(std::move(v));
        return;
    }
    if (handler_) {
        handler_(v);
        return;
    }
    MCLOCK_PANIC("%s", formatDump(v).c_str());
}

void
VmChecker::checkShadow(const Page *page, NodeId node)
{
    ++checksRun_;
    auto it = shadow_.find(page);
    const LruListKind believed =
        it == shadow_.end() ? LruListKind::None : it->second.list;
    if (believed != page->list()) {
        report(ViolationCode::ShadowDivergence, page, node,
               detail::format("page tagged %s but the checker last saw "
                              "it on %s — state changed out of band",
                              lruListName(page->list()),
                              lruListName(believed)));
    }
}

void
VmChecker::checkPlacement(const Page *page, LruListKind kind, NodeId node,
                          std::vector<Violation> *sink)
{
    ++checksRun_;
    if (!page->resident()) {
        report(ViolationCode::NonResidentOnList, page, node,
               detail::format("entering %s without a frame",
                              lruListName(kind)),
               sink);
    } else if (node != kInvalidNode && page->node() != node) {
        report(ViolationCode::NodeMismatch, page, node,
               detail::format("entering node %d's %s but resident on "
                              "node %d",
                              node, lruListName(kind), page->node()),
               sink);
    }
    if (kind == LruListKind::Unevictable) {
        if (!page->unevictable()) {
            report(ViolationCode::FlagMismatch, page, node,
                   "on the unevictable list without PG_unevictable",
                   sink);
        }
        return;
    }
    if (page->isAnon() != isAnonList(kind)) {
        report(ViolationCode::FamilyMismatch, page, node,
               detail::format("%s page entering %s",
                              page->isAnon() ? "anon" : "file",
                              lruListName(kind)),
               sink);
    }
    if (isPromoteList(kind) && !page->promoteFlag()) {
        report(ViolationCode::FlagMismatch, page, node,
               detail::format("entering %s without PagePromote — no "
                              "selection evidence",
                              lruListName(kind)),
               sink);
    }
}

void
VmChecker::onListAdd(const Page *page, LruListKind kind, NodeId node)
{
    checkShadow(page, node);
    ++checksRun_;
    if (page->onLru()) {
        report(ViolationCode::DoubleAdd, page, node,
               detail::format("add to %s while still on %s",
                              lruListName(kind),
                              lruListName(page->list())));
    }
    auto &sh = shadowOf(page);
    if (!legalEntryEdge(sh.ctx, kind)) {
        report(ViolationCode::BadReentry, page, node,
               detail::format("%s page may not enter %s",
                              reentryContextName(sh.ctx),
                              lruListName(kind)));
    }
    checkPlacement(page, kind, node);
    recordHistory(page, node, LruListKind::None, kind, "add");
    sh.list = kind;
    sh.node = node;
}

void
VmChecker::onListRemove(const Page *page, NodeId node)
{
    checkShadow(page, node);
    ++checksRun_;
    if (!page->onLru()) {
        report(ViolationCode::RemoveOffList, page, node,
               "remove of a page on no list");
    }
    recordHistory(page, node, page->list(), LruListKind::None, "remove");
    auto &sh = shadowOf(page);
    sh.list = LruListKind::None;
    sh.ctx = ReentryContext::Isolated;
}

void
VmChecker::onListMove(const Page *page, LruListKind to, NodeId node)
{
    checkShadow(page, node);
    ++checksRun_;
    const LruListKind from = page->list();
    if (!legalMoveEdge(from, to)) {
        report(ViolationCode::IllegalTransition, page, node,
               detail::format("move %s -> %s is off the Fig. 4 edge "
                              "table",
                              lruListName(from), lruListName(to)));
    }
    checkPlacement(page, to, node);
    recordHistory(page, node, from, to, "move");
    shadowOf(page).list = to;
}

void
VmChecker::onListRotate(const Page *page, NodeId node)
{
    checkShadow(page, node);
    ++checksRun_;
    if (!page->onLru()) {
        report(ViolationCode::RemoveOffList, page, node,
               "rotation of a page on no list");
    }
    recordHistory(page, node, page->list(), page->list(), "rotate");
}

void
VmChecker::onMigrationPhase(const Page *page, sim::FaultPhase phase,
                            NodeId dst)
{
    ++checksRun_;
    if (page->onLru()) {
        report(ViolationCode::IllegalTransition, page, dst,
               detail::format("%s phase with the page still on %s — "
                              "migrating pages must be isolated",
                              sim::faultPhaseName(phase),
                              lruListName(page->list())));
    }
    if (phase == sim::FaultPhase::Remap && page->locked()) {
        report(ViolationCode::LockedRemap, page, dst,
               "remap of a locked page: the pin holder still expects "
               "the old mapping");
    }
    recordHistory(page, dst, page->list(), page->list(),
                  sim::faultPhaseName(phase));
}

void
VmChecker::onMigrationCommit(const Page *page, TierRank srcTier,
                             TierRank dstTier)
{
    ++checksRun_;
    if (dstTier < srcTier && faults_ && faults_->poisoned(page->vpn())) {
        report(ViolationCode::PoisonedPromote, page, page->node(),
               detail::format("poisoned page committed a migration from "
                              "tier %d up to tier %d",
                              srcTier, dstTier));
    }
    auto &sh = shadowOf(page);
    sh.node = page->node();
    if (dstTier < srcTier)
        sh.ctx = ReentryContext::PromoteArrival;
    else if (dstTier > srcTier)
        sh.ctx = ReentryContext::DemoteArrival;
    else
        sh.ctx = ReentryContext::Isolated;
    recordHistory(page, page->node(), LruListKind::None, LruListKind::None,
                  "commit");
}

void
VmChecker::onExchangeCommit(const Page *a, TierRank aTier, const Page *b,
                            TierRank bTier)
{
    // Each side of the exchange is a migration commit onto the other
    // side's old tier.
    onMigrationCommit(a, aTier, bTier);
    onMigrationCommit(b, bTier, aTier);
}

void
VmChecker::onEvict(const Page *page)
{
    checkShadow(page, page->node());
    ++checksRun_;
    if (page->onLru()) {
        report(ViolationCode::IllegalTransition, page, page->node(),
               detail::format("eviction with the page still on %s",
                              lruListName(page->list())));
    }
    recordHistory(page, page->node(), page->list(), LruListKind::None,
                  "evict");
    auto &sh = shadowOf(page);
    sh.list = LruListKind::None;
    sh.node = kInvalidNode;
    sh.ctx = ReentryContext::Fresh;  // next entry is a swap-in
}

void
VmChecker::onPageDestroyed(const Page *page)
{
    // Forget everything: the allocator may recycle this address for an
    // unrelated page, which must start from a clean Fresh record.
    shadow_.erase(page);
    for (auto &e : history_) {
        if (e.page == page)
            e.page = nullptr;
    }
}

void
VmChecker::validateList(const PageList &list, LruListKind kind, NodeId node,
                        std::vector<Violation> *sink)
{
    // Lockdep-style linkage walk, mirroring the kernel's
    // __list_add_valid/__list_del_entry_valid: every hook's neighbours
    // must point straight back at it, and the walk must visit exactly
    // size() elements before returning to the head.
    std::size_t walked = 0;
    for (Page *pg : const_cast<PageList &>(list)) {
        ++checksRun_;
        const ListHook &h = pg->lruHook;
        if (!h.linked() || h.prev->next != &pg->lruHook ||
            h.next->prev != &pg->lruHook) {
            report(ViolationCode::ListCorruption, pg, node,
                   detail::format("broken linkage on %s: neighbours do "
                                  "not point back",
                                  lruListName(kind)),
                   sink);
            return;  // unsafe to keep walking a broken chain
        }
        if (++walked > list.size()) {
            report(ViolationCode::ListCorruption, pg, node,
                   detail::format("%s walk exceeded its size %zu — "
                                  "cycle or cross-link",
                                  lruListName(kind), list.size()),
                   sink);
            return;
        }
        if (pg->list() != kind) {
            report(ViolationCode::ShadowDivergence, pg, node,
                   detail::format("on %s but tagged %s",
                                  lruListName(kind),
                                  lruListName(pg->list())),
                   sink);
        }
        auto it = shadow_.find(pg);
        if (it != shadow_.end() && it->second.list != kind) {
            report(ViolationCode::ShadowDivergence, pg, node,
                   detail::format("on %s but the checker last saw it "
                                  "on %s",
                                  lruListName(kind),
                                  lruListName(it->second.list)),
                   sink);
        }
        checkPlacement(pg, kind, node, sink);
    }
    ++checksRun_;
    if (walked != list.size()) {
        report(ViolationCode::ListCorruption, nullptr, node,
               detail::format("%s claims %zu elements but the walk saw "
                              "%zu",
                              lruListName(kind), list.size(), walked),
               sink);
    }
}

}  // namespace debug
}  // namespace mclock
