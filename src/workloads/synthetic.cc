#include "workloads/synthetic.hh"

#include "base/logging.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {

const char *
syntheticProfileName(SyntheticProfile p)
{
    switch (p) {
      case SyntheticProfile::Rubis: return "rubis";
      case SyntheticProfile::SpecPower: return "specpower80";
      case SyntheticProfile::Xalan: return "xalan";
      case SyntheticProfile::Lusearch: return "lusearch";
    }
    return "?";
}

SyntheticShape
syntheticShape(SyntheticProfile profile)
{
    switch (profile) {
      case SyntheticProfile::Rubis:
        // OLTP: solid always-hot working set, several rotating groups.
        return {0.15, 0.45, 4, 20_s, 0.60, 0.002};
      case SyntheticProfile::SpecPower:
        // Load steps at 80% throughput: burstier rotation.
        return {0.10, 0.40, 6, 10_s, 0.50, 0.003};
      case SyntheticProfile::Xalan:
        // Two long conversion passes alternating over big regions.
        return {0.08, 0.32, 2, 40_s, 0.70, 0.001};
      case SyntheticProfile::Lusearch:
        // Many short-lived query bursts over index segments.
        return {0.12, 0.28, 8, 5_s, 0.45, 0.004};
    }
    return {0.1, 0.4, 4, 20_s, 0.5, 0.002};
}

SyntheticWorkload::SyntheticWorkload(sim::Simulator &sim,
                                     SyntheticProfile profile,
                                     SyntheticConfig cfg)
    : sim_(sim), profile_(profile), cfg_(cfg),
      shape_(syntheticShape(profile)), rng_(cfg.seed)
{
    base_ = sim_.mmap(cfg_.numPages * kPageSize, /*anon=*/true,
                      syntheticProfileName(profile));
}

void
SyntheticWorkload::run(trace::AccessTrace &traceOut)
{
    const std::size_t n = cfg_.numPages;
    const auto dramFriendly =
        static_cast<std::size_t>(shape_.dramFriendlyFrac *
                                 static_cast<double>(n));
    const auto infrequent =
        static_cast<std::size_t>(shape_.infrequentFrac *
                                 static_cast<double>(n));
    const std::size_t tierFriendly = n - dramFriendly - infrequent;
    const std::size_t groupSize =
        std::max<std::size_t>(1, tierFriendly / shape_.tierGroups);

    // Page layout within the region: [dram friendly][infrequent][groups].
    const SimTime start = sim_.now();
    const SimTime end = start + cfg_.duration;

    // Each access is traced with the simulated clock right after it,
    // so accesses go out one call at a time.
    auto touch = [&](std::size_t pageIdx) {
        const Vaddr va = base_ + pageIdx * kPageSize +
                         (rng_.next64() & (kPageSize - 1) & ~7ull);
        if (rng_.nextBool(0.3))
            sim_.write(va, 8);
        else
            sim_.read(va, 8);
        traceOut.record(static_cast<std::uint32_t>(pageIdx),
                        sim_.now() - start);
    };

    while (sim_.now() < end) {
        const SimTime stepStart = sim_.now();
        const SimTime elapsed = sim_.now() - start;
        const unsigned activeGroup = static_cast<unsigned>(
            (elapsed / shape_.phaseLength) % shape_.tierGroups);

        // Always-hot pages.
        for (std::size_t i = 0; i < dramFriendly; ++i) {
            if (rng_.nextBool(shape_.hotAccessProb))
                touch(i);
        }
        // Rarely-touched pages.
        for (std::size_t i = dramFriendly; i < dramFriendly + infrequent;
             ++i) {
            if (rng_.nextBool(shape_.infrequentProb))
                touch(i);
        }
        // The active tier-friendly group runs hot; the rest idle.
        const std::size_t groupBase =
            dramFriendly + infrequent +
            static_cast<std::size_t>(activeGroup) * groupSize;
        for (std::size_t i = 0; i < groupSize; ++i) {
            const std::size_t idx = groupBase + i;
            if (idx < n && rng_.nextBool(shape_.hotAccessProb))
                touch(idx);
        }
        // Pad the step to its nominal length (think time), so the
        // per-step access probabilities define rates per cfg_.step.
        sim_.compute(cfg_.cpuPerStep);
        const SimTime stepEnd = stepStart + cfg_.step;
        if (sim_.now() < stepEnd)
            sim_.compute(stepEnd - sim_.now());
    }
}

}  // namespace workloads
}  // namespace mclock
