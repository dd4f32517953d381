#include "harness/manifest.hh"

#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "base/hash.hh"
#include "base/json.hh"
#include "base/logging.hh"

namespace mclock {
namespace harness {

namespace {

std::string
readFileTrimmed(const std::filesystem::path &path)
{
    std::ifstream f(path);
    if (!f)
        return "";
    std::string line;
    std::getline(f, line);
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r' ||
            line.back() == ' '))
        line.pop_back();
    return line;
}

std::string
isoTimestampUtc()
{
    // mclock-lint: wall-clock-ok(manifest provenance stamp; excluded from hashes)
    const auto now = std::chrono::system_clock::now();
    const std::time_t t = std::chrono::system_clock::to_time_t(now);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** @p s as one POSIX shell word. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (const char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    return out + "'";
}

}  // namespace

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readGitSha(const std::string &startDir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir = fs::absolute(startDir, ec);
    while (!dir.empty()) {
        const fs::path gitDir = dir / ".git";
        if (fs::exists(gitDir, ec)) {
            const std::string head = readFileTrimmed(gitDir / "HEAD");
            if (head.rfind("ref: ", 0) == 0) {
                const std::string ref = head.substr(5);
                const std::string sha = readFileTrimmed(gitDir / ref);
                if (!sha.empty())
                    return sha;
                // Packed refs fallback: "<sha> <ref>" lines.
                std::ifstream packed(gitDir / "packed-refs");
                std::string line;
                while (std::getline(packed, line)) {
                    if (line.size() > 41 &&
                        line.compare(41, std::string::npos, ref) == 0)
                        return line.substr(0, 40);
                }
                return "unknown";
            }
            return head.empty() ? "unknown" : head;  // detached HEAD
        }
        const fs::path parent = dir.parent_path();
        if (parent == dir)
            break;
        dir = parent;
    }
    return "unknown";
}

Json
readGitDirty(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path abs = fs::absolute(dir, ec).lexically_normal();
    if (ec)
        return Json("unknown");
    if (!abs.has_filename())
        abs = abs.parent_path();  // drop a trailing separator
    const std::string cmd =
        "GIT_CEILING_DIRECTORIES=" + shellQuote(abs.parent_path().string()) +
        " git -C " + shellQuote(abs.string()) +
        " --no-optional-locks status --porcelain --untracked-files=no"
        " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return Json("unknown");
    bool changed = false;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
        changed = true;
    const int status = pclose(pipe);
    if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return Json("unknown");
    return Json(changed);
}

std::uint64_t
configHash(const Scenario &scenario, const RunContext &ctx)
{
    Fnv1a h;
    h.field(scenario.name).field(scenario.workload);
    for (const auto &p : scenario.policies)
        h.field(p);
    h.field(std::to_string(ctx.seed)).field(ctx.golden ? "golden" : "full");
    for (const auto &[key, value] : ctx.params)
        h.field(key).field(std::to_string(value));
    return h.value();
}

void
writeManifest(const RunReport &report, const RunnerOptions &opts)
{
    Json scenarios{Json::Array{}};
    for (const auto &r : report.results) {
        const Scenario *sc = findScenario(r.name);
        Json entry{Json::Object{}};
        entry.set("name", r.name);
        if (sc) {
            entry.set("config_hash", hex64(configHash(*sc, opts.context)));
            entry.set("workload", sc->workload);
        }
        entry.set("units", static_cast<double>(r.units));
        entry.set("metrics", static_cast<double>(r.output.summary.size()));
        entry.set("violations",
                  static_cast<double>(r.output.violations.size()));
        Json artifacts{Json::Array{}};
        for (const auto &a : r.output.artifacts)
            artifacts.push(Json(a.filename));
        for (const auto &a : r.output.statsArtifacts)
            artifacts.push(Json(r.name + "_" + a.filename));
        entry.set("artifacts", std::move(artifacts));
        // Scenario-total vmstat counters (the plain, unit-prefix-free
        // keys merged by mergeRecords); per-unit and per-node values
        // live in the vmstat.csv artifacts, not the manifest.
        Json vmstat{Json::Object{}};
        for (const auto &[key, value] : r.output.vmstat) {
            if (key.find('.') == std::string::npos)
                vmstat.set(key, static_cast<double>(value));
        }
        entry.set("vmstat", std::move(vmstat));
        // Per-unit result fingerprints (RunRecord::fingerprint).
        Json fingerprints{Json::Object{}};
        for (const auto &[unit, fp] : r.output.fingerprints)
            fingerprints.set(unit, hex64(fp));
        entry.set("fingerprints", std::move(fingerprints));
        // Per-unit trace events lost to ring overwrites.
        Json dropped{Json::Object{}};
        for (const auto &[unit, n] : r.output.traceDropped)
            dropped.set(unit, static_cast<double>(n));
        entry.set("trace_dropped", std::move(dropped));
        // Per-tenant QoS metrics for multi-tenant scenarios
        // ("<unit>.<tenant>.<metric>"); omitted when the scenario
        // created no memory cgroups.
        if (!r.output.tenantMetrics.empty()) {
            Json tenants{Json::Object{}};
            for (const auto &[key, value] : r.output.tenantMetrics)
                tenants.set(key, value);
            entry.set("tenants", std::move(tenants));
        }
        scenarios.push(std::move(entry));
    }

    Json manifest{Json::Object{}};
    // The SHA identifies the code, not the results directory: prefer
    // the output dir (results checked into some repo), but fall back
    // to the source tree this binary was built from.
    std::string sha = readGitSha(opts.outDir);
#ifdef MCLOCK_SOURCE_DIR
    if (sha == "unknown")
        sha = readGitSha(MCLOCK_SOURCE_DIR);
#endif
    manifest.set("git_sha", sha);
#ifdef MCLOCK_SOURCE_DIR
    manifest.set("git_dirty", readGitDirty(MCLOCK_SOURCE_DIR));
#else
    manifest.set("git_dirty", "unknown");
#endif
    manifest.set("timestamp_utc", isoTimestampUtc());
    manifest.set("seed", static_cast<double>(opts.context.seed));
    manifest.set("golden_profile", Json(opts.context.golden));
    manifest.set("jobs", static_cast<double>(opts.jobs));
    // Worker threads for sharded scenarios. Execution width only —
    // excluded from config_hash because results do not depend on it.
    manifest.set("shards", static_cast<double>(opts.context.shards));
    manifest.set("wall_seconds", report.wallSeconds);
    manifest.set("scenarios", std::move(scenarios));

    const auto path =
        std::filesystem::path(opts.outDir) / "run_manifest.json";
    std::ofstream f(path);
    if (!f)
        MCLOCK_FATAL("cannot write manifest '%s'", path.string().c_str());
    f << manifest.dump(2) << "\n";
}

}  // namespace harness
}  // namespace mclock
