/**
 * @file
 * Policy decorator used only in the traced run: forwards every
 * TieringPolicy hook to the wrapped policy and records a span around
 * the two hook families the per-layer report times:
 *
 *  - "policies.pressure": handlePressure (kswapd / direct reclaim);
 *  - "policies.fault": the page-fault path — selectAllocationNode,
 *    onPageAllocated and onHintFault.
 *
 * Per-access hooks (onMemoryAccess, onSupervisedAccess) and
 * onPageFreed are forwarded untimed. The wrapped policy registers its
 * own daemons at attach time, so daemon work is not spanned here.
 */

#ifndef PERFBENCH_TRACED_POLICY_HH_
#define PERFBENCH_TRACED_POLICY_HH_

#include <memory>
#include <utility>

#include "policies/policy.hh"
#include "spans.hh"

namespace perfbench {

class TracedPolicy final : public mclock::policies::TieringPolicy
{
  public:
    TracedPolicy(std::unique_ptr<mclock::policies::TieringPolicy> inner,
                 SpanLane &lane)
        : inner_(std::move(inner)), lane_(lane)
    {
        observesMemoryAccess_ = inner_->observesMemoryAccess();
    }

    const char *name() const override { return inner_->name(); }

    void
    attach(mclock::sim::Simulator &sim) override
    {
        TieringPolicy::attach(sim);
        inner_->attach(sim);
    }

    mclock::NodeId
    selectAllocationNode(mclock::Page &page) override
    {
        ScopedSpan span(&lane_, "policies.fault");
        return inner_->selectAllocationNode(page);
    }

    void
    onPageAllocated(mclock::Page *page) override
    {
        ScopedSpan span(&lane_, "policies.fault");
        inner_->onPageAllocated(page);
    }

    void
    onHintFault(mclock::Page *page) override
    {
        ScopedSpan span(&lane_, "policies.fault");
        inner_->onHintFault(page);
    }

    void
    handlePressure(mclock::sim::Node &node) override
    {
        ScopedSpan span(&lane_, "policies.pressure");
        inner_->handlePressure(node);
    }

    void
    onPageFreed(mclock::Page *page) override
    {
        inner_->onPageFreed(page);
    }

    void
    onMemoryAccess(mclock::Page *page,
                   mclock::policies::AccessContext &ctx) override
    {
        inner_->onMemoryAccess(page, ctx);
    }

    void
    onSupervisedAccess(mclock::Page *page) override
    {
        inner_->onSupervisedAccess(page);
    }

    mclock::policies::FeatureRow
    features() const override
    {
        return inner_->features();
    }

  private:
    std::unique_ptr<mclock::policies::TieringPolicy> inner_;
    SpanLane &lane_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_POLICY_HH_
