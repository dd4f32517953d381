/**
 * @file
 * The benchmark's three workloads, each built from the simulator's
 * public API and run as one closed-loop repetition ("rep"): set-up,
 * the timed phase, then correctness checks outside the timing.
 *
 *  - ycsb_seq: YCSB Load, then A, B, C, F, W, D over KvStore on the
 *    paper-scale YCSB machine under multiclock (the Fig. 5 path);
 *  - gapbs_pr: PageRank trials on the Kronecker graph on the GAPBS
 *    machine under multiclock (the Fig. 6 path);
 *  - shard_kv: the 8-shard big-memory KV host (YCSB-A, multiclock)
 *    driven by a benchmark-owned EpochDriver.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** Workload sizes; tiny() is the smoke-test scale. */
struct Sizes
{
    // ycsb_seq
    std::uint64_t ycsbRecords = 36000;
    std::uint64_t ycsbOpsPerPhase = 300000;
    // gapbs_pr
    unsigned gapbsScale = 16;
    unsigned gapbsDegree = 24;
    unsigned prTrials = 2;
    unsigned prIters = 2;
    // shard_kv
    std::uint64_t shardRecords = 9600;  ///< per shard
    std::uint64_t shardEpochs = 8;
    std::uint64_t shardOpsPerEpoch = 60000;  ///< per shard
    // CacheModel replay (traced run)
    std::uint64_t llcReplayAccesses = 4000000;

    static Sizes tiny();
    std::string describe() const;
};

/** Exact simulator counters, in a fixed order. */
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t countOf(const Counts &counts, const std::string &name);

/** Checked operations of one rep (see README: fail_frac). */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    /** Count one checked operation; record @p what if it failed. */
    void expect(bool ok, std::string_view what);
};

/** Busiest and mean worker driver time of one shard epoch. */
struct EpochLoad
{
    double busiestS = 0.0;
    double meanS = 0.0;
};

/** What one repetition measured. */
struct Rep
{
    double setupS = 0.0;  ///< host s, workload start to first timed op
    double runS = 0.0;    ///< host s, the timed phase
    std::uint64_t simTimeNs = 0;  ///< simulated ns of the timed phase
    std::uint64_t accesses = 0;   ///< memory-visible, timed phase
    Counts counts;  ///< whole workload, set-up included
    Check check;
    /** shard_kv traced reps: per-epoch worker load (see spans). */
    std::vector<EpochLoad> epochs;
};

struct RepOptions
{
    std::uint64_t seed = 1;
    Sizes sizes;
    /** shard_kv worker threads. */
    unsigned width = 1;
    /** Non-null only in traced reps. */
    SpanRecorder *spans = nullptr;
    /** Run id stamped on the rep's spans. */
    std::uint32_t run = 0;
};

enum class WorkloadId { YcsbSeq, GapbsPr, ShardKv };

bool parseWorkload(const std::string &name, WorkloadId &out);

/** Span lanes a traced rep of @p w needs. */
std::size_t spanLanes(WorkloadId w);

/** Run one repetition of @p w. */
Rep runRep(WorkloadId w, const RepOptions &opts);

/**
 * Replay a benchmark-generated address stream through a CacheModel of
 * @p w's LLC geometry and return host ns per CacheModel::access (the
 * stream is generated before timing starts).
 */
double llcReplayNsPerAccess(WorkloadId w, const RepOptions &opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HH_
