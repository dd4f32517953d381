#include "workloads/ycsb.hh"

#include "base/logging.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {

const char *
ycsbWorkloadName(YcsbWorkload w)
{
    switch (w) {
      case YcsbWorkload::A: return "A";
      case YcsbWorkload::B: return "B";
      case YcsbWorkload::C: return "C";
      case YcsbWorkload::D: return "D";
      case YcsbWorkload::E: return "E";
      case YcsbWorkload::F: return "F";
      case YcsbWorkload::W: return "W";
    }
    return "?";
}

YcsbDriver::YcsbDriver(sim::Simulator &sim, YcsbConfig cfg)
    : sim_(sim), cfg_(cfg), rng_(cfg.seed),
      store_(std::make_unique<KvStore>(sim))
{
    // Throughput over zero operations is undefined.
    if (cfg_.opsPerWorkload == 0)
        MCLOCK_FATAL("YCSB opsPerWorkload must be > 0");
}

void
YcsbDriver::load()
{
    for (std::uint64_t i = 0; i < cfg_.recordCount; ++i)
        store_->put(keyOf(i), cfg_.valueBytes);
    recordsLoaded_ = cfg_.recordCount;
}

void
YcsbDriver::doRead(std::uint64_t recno)
{
    const bool found = store_->get(keyOf(recno));
    MCLOCK_ASSERT(found);
}

void
YcsbDriver::doUpdate(std::uint64_t recno)
{
    store_->put(keyOf(recno), cfg_.valueBytes);
}

void
YcsbDriver::doInsert()
{
    store_->put(keyOf(recordsLoaded_), cfg_.valueBytes);
    ++recordsLoaded_;
}

YcsbResult
YcsbDriver::run(YcsbWorkload w)
{
    YcsbResult result;
    // GCC 12 emits a -Wrestrict false positive (PR 105329) when this
    // string assignment is inlined at -O2; the pointer can never alias
    // the string's storage.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    result.workload = ycsbWorkloadName(w);
#pragma GCC diagnostic pop
    MCLOCK_ASSERT(recordsLoaded_ > 0);  // load() first

    if (w == YcsbWorkload::E) {
        // SCAN is not implemented by Memcached; the workload is
        // non-operational on this backend (paper §V-B).
        result.operational = false;
        return result;
    }

    ScrambledZipfianGenerator zipf(recordsLoaded_, cfg_.zipfTheta);
    LatestGenerator latest(recordsLoaded_, cfg_.zipfTheta);

    const SimTime start = sim_.now();
    for (std::uint64_t op = 0; op < cfg_.opsPerWorkload; ++op) {
        switch (w) {
          case YcsbWorkload::A:
            // 50% reads, 50% updates.
            if (rng_.nextBool(0.5))
                doRead(zipf.next(rng_));
            else
                doUpdate(zipf.next(rng_));
            break;
          case YcsbWorkload::B:
            // 95% reads, 5% updates.
            if (rng_.nextBool(0.95))
                doRead(zipf.next(rng_));
            else
                doUpdate(zipf.next(rng_));
            break;
          case YcsbWorkload::C:
            doRead(zipf.next(rng_));
            break;
          case YcsbWorkload::D:
            // 95% reads of recent records, 5% inserts.
            if (rng_.nextBool(0.95)) {
                doRead(latest.next(rng_));
            } else {
                doInsert();
                latest.setItemCount(recordsLoaded_);
            }
            break;
          case YcsbWorkload::F:
            // 50% reads, 50% read-modify-writes.
            if (rng_.nextBool(0.5))
                doRead(zipf.next(rng_));
            else
                store_->readModifyWrite(keyOf(zipf.next(rng_)));
            break;
          case YcsbWorkload::W:
            doUpdate(zipf.next(rng_));
            break;
          case YcsbWorkload::E:
            break;  // handled above
        }
    }
    result.ops = cfg_.opsPerWorkload;
    result.elapsed = sim_.now() - start;
    return result;
}

std::vector<YcsbResult>
YcsbDriver::runPaperSequence()
{
    std::vector<YcsbResult> results;
    for (YcsbWorkload w : {YcsbWorkload::A, YcsbWorkload::B,
                           YcsbWorkload::C, YcsbWorkload::F,
                           YcsbWorkload::W, YcsbWorkload::D}) {
        results.push_back(run(w));
    }
    return results;
}

}  // namespace workloads
}  // namespace mclock
