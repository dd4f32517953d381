/**
 * @file
 * Run manifest: a JSON record of what was run and under what tree
 * state, written next to the result artifacts so any CSV can be traced
 * back to the exact code and configuration that produced it.
 */

#ifndef MCLOCK_HARNESS_MANIFEST_HH_
#define MCLOCK_HARNESS_MANIFEST_HH_

#include <cstdint>
#include <string>

#include "base/json.hh"
#include "harness/runner.hh"

namespace mclock {
namespace harness {

/** @p v as 16 lower-case hex digits (JSON numbers lose 64-bit values). */
std::string hex64(std::uint64_t v);

/**
 * Resolve the current git commit by reading .git/HEAD (no subprocess),
 * walking up from @p startDir. @return "unknown" outside a repository.
 */
std::string readGitSha(const std::string &startDir = ".");

/**
 * Whether the work tree at @p dir has modified tracked files: the
 * output of one `git status --porcelain --untracked-files=no` there,
 * looking no higher than @p dir for the repository. @return true or
 * false, or "unknown" when git cannot run or @p dir is no work tree.
 * Provenance only: never part of config_hash or a fingerprint.
 */
Json readGitDirty(const std::string &dir);

/** FNV-1a hash of a scenario execution's configuration. */
std::uint64_t configHash(const Scenario &scenario, const RunContext &ctx);

/** Write <outDir>/run_manifest.json describing @p report. */
void writeManifest(const RunReport &report, const RunnerOptions &opts);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_MANIFEST_HH_
