/**
 * @file
 * YCSB driver over the KvStore backend.
 *
 * Implements the Yahoo! Cloud Serving Benchmark core workloads A-F plus
 * the paper's extra workload W (100% writes), with the prescribed
 * execution sequence the paper follows: Load, A, B, C, F, W, D (D last
 * because it changes the record count). Workload E uses SCAN, which
 * Memcached does not implement; exactly as in the paper it is reported
 * as non-operational.
 */

#ifndef MCLOCK_WORKLOADS_YCSB_HH_
#define MCLOCK_WORKLOADS_YCSB_HH_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "base/units.hh"
#include "workloads/kvstore.hh"
#include "workloads/zipf.hh"

namespace mclock {

namespace sim {
class Simulator;
}

namespace workloads {

/** The YCSB core workloads (plus the paper's W). */
enum class YcsbWorkload { A, B, C, D, E, F, W };

const char *ycsbWorkloadName(YcsbWorkload w);

/** Driver configuration. */
struct YcsbConfig
{
    std::size_t recordCount = 24000;
    std::size_t valueBytes = 1024;        ///< YCSB default 1 KB records
    std::uint64_t opsPerWorkload = 1500000;
    double zipfTheta = 0.99;
    std::uint64_t seed = 1;

    bool operator==(const YcsbConfig &) const = default;
};

/** Result of one workload execution phase. */
struct YcsbResult
{
    std::string workload;
    std::uint64_t ops = 0;
    SimTime elapsed = 0;
    bool operational = true;  ///< false for E on Memcached

    double
    throughputOpsPerSec() const
    {
        return elapsed
            ? static_cast<double>(ops) * 1e9 /
              static_cast<double>(elapsed)
            : 0.0;
    }
};

/**
 * Runs the load phase and the execution phases against one simulator.
 *
 * A phase's op sequence depends only on the driver's Rng and the
 * request generators, never on simulator state, so run() draws it on a
 * producer thread, block by block, while the calling thread replays
 * the drawn blocks in order into the store. The simulator sees exactly
 * the calls a serial draw-then-issue loop would make.
 */
class YcsbDriver
{
  public:
    /** Ops per hand-off block of the producer's ring. */
    static constexpr std::size_t kOpsPerBlock = 2048;

    YcsbDriver(sim::Simulator &sim, YcsbConfig cfg = {});

    /** Load phase: populate the backend with recordCount records. */
    void load();

    /** Execute one workload phase. */
    YcsbResult run(YcsbWorkload w);

    /**
     * The paper's prescribed sequence after load: A, B, C, F, W, D.
     * @return one result per executed workload, in order
     */
    std::vector<YcsbResult> runPaperSequence();

    KvStore &store() { return *store_; }

  private:
    /** Key for record number @p recno (insertion order). */
    static std::uint64_t keyOf(std::uint64_t recno) { return recno; }

    void doRead(std::uint64_t recno);
    void doUpdate(std::uint64_t recno);
    void doInsert();

    sim::Simulator &sim_;
    YcsbConfig cfg_;
    /** Owned by a phase's producer thread from its start to its join. */
    Rng rng_;
    std::unique_ptr<KvStore> store_;
    std::uint64_t recordsLoaded_ = 0;
};

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_YCSB_HH_
