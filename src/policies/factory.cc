#include "policies/factory.hh"

#include "base/logging.hh"
#include "core/multiclock.hh"
#include "policies/amp.hh"
#include "policies/autotiering.hh"
#include "policies/memory_mode.hh"
#include "policies/nimble.hh"
#include "policies/static_tiering.hh"

namespace mclock {
namespace policies {

std::unique_ptr<TieringPolicy>
makePolicy(const std::string &name, const PolicyOptions &opts)
{
    if (name == "static")
        return std::make_unique<StaticTieringPolicy>();
    if (name == "multiclock")
        return std::make_unique<core::MultiClockPolicy>(opts);
    if (name == "nimble")
        return std::make_unique<NimblePolicy>(opts);
    if (name == "at-cpm" || name == "at-opm" || name == "autonuma") {
        const AutoTieringMode mode =
            name == "at-opm"
                ? AutoTieringMode::Opm
                : (name == "at-cpm" ? AutoTieringMode::Cpm
                                    : AutoTieringMode::AutoNuma);
        return std::make_unique<AutoTieringPolicy>(mode, opts);
    }
    if (name == "memory-mode") {
        if (opts.dramCacheBytes == 0)
            MCLOCK_FATAL("memory-mode requires dramCacheBytes > 0");
        return std::make_unique<MemoryModePolicy>(opts.dramCacheBytes);
    }
    if (name == "amp-lru" || name == "amp-lfu" || name == "amp-random") {
        const AmpMode mode = name == "amp-lru"
                                 ? AmpMode::Lru
                                 : (name == "amp-lfu" ? AmpMode::Lfu
                                                      : AmpMode::Random);
        return std::make_unique<AmpPolicy>(mode, opts);
    }
    MCLOCK_FATAL("unknown policy '%s'", name.c_str());
}

std::unique_ptr<TieringPolicy>
makePolicy(const std::string &name, std::size_t dramCacheBytes)
{
    PolicyOptions opts;
    opts.dramCacheBytes = dramCacheBytes;
    return makePolicy(name, opts);
}

std::vector<std::string>
policyNames()
{
    return {"static",   "multiclock", "nimble",
            "at-cpm",   "at-opm",     "autonuma",
            "memory-mode", "amp-lru", "amp-lfu", "amp-random"};
}

std::vector<std::string>
tieredPolicyNames()
{
    return {"static", "multiclock", "nimble", "at-cpm", "at-opm"};
}

}  // namespace policies
}  // namespace mclock
