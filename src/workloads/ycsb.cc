#include "workloads/ycsb.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <thread>

#include "base/logging.hh"
#include "base/sync.hh"
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

namespace {

/** What the replay calls for one drawn op. */
enum class OpKind : std::uint64_t { Read, Update, Insert, ReadModifyWrite };

/** A drawn op is one word: its kind above kKindShift, its record below. */
constexpr unsigned kKindShift = 62;

constexpr std::uint64_t
packOp(OpKind kind, std::uint64_t recno = 0)
{
    return static_cast<std::uint64_t>(kind) << kKindShift | recno;
}

/**
 * Draw one op of phase @p w: the same Rng and generator calls, in the
 * same order, as issuing it would make. Of @p zipf and @p latest only
 * the one phase @p w draws from is engaged. @p items counts the records
 * the drawn ops will have inserted, for the latest distribution.
 */
std::uint64_t
drawOp(YcsbWorkload w, Rng &rng,
       std::optional<ScrambledZipfianGenerator> &zipf,
       std::optional<LatestGenerator> &latest, std::uint64_t &items)
{
    switch (w) {
      case YcsbWorkload::A:
        // 50% reads, 50% updates.
        if (rng.nextBool(0.5))
            return packOp(OpKind::Read, zipf->next(rng));
        return packOp(OpKind::Update, zipf->next(rng));
      case YcsbWorkload::B:
        // 95% reads, 5% updates.
        if (rng.nextBool(0.95))
            return packOp(OpKind::Read, zipf->next(rng));
        return packOp(OpKind::Update, zipf->next(rng));
      case YcsbWorkload::C:
        return packOp(OpKind::Read, zipf->next(rng));
      case YcsbWorkload::D:
        // 95% reads of recent records, 5% inserts.
        if (rng.nextBool(0.95))
            return packOp(OpKind::Read, latest->next(rng));
        latest->setItemCount(++items);
        return packOp(OpKind::Insert);
      case YcsbWorkload::F:
        // 50% reads, 50% read-modify-writes.
        if (rng.nextBool(0.5))
            return packOp(OpKind::Read, zipf->next(rng));
        return packOp(OpKind::ReadModifyWrite, zipf->next(rng));
      case YcsbWorkload::W:
        return packOp(OpKind::Update, zipf->next(rng));
      case YcsbWorkload::E:
        break;  // never drawn: SCAN is non-operational
    }
    MCLOCK_PANIC("no op to draw for workload %s", ycsbWorkloadName(w));
}

/**
 * A phase's producer thread and the ring of drawn ops it fills:
 * kBlocks blocks of kOpsPerBlock ops (64 KiB in all), used in turn.
 * Each side takes the lock once per block, to publish a filled block
 * or free a replayed one, and sleeps on a CondVar when it is ahead;
 * nobody spins, so at --jobs = nproc the producer never takes a core
 * from another unit. The producer writes a block only after the replay
 * released it and before publishing it, and the replay reads it only
 * between acquire() and release(), so the counter updates under mu_
 * order every access to a block's contents.
 */
class OpProducer
{
  public:
    /** Start drawing @p ops ops with @p draw, block after block. */
    template <typename Draw>
    OpProducer(std::uint64_t ops, Draw draw)
        : ops_(ops), thread_([this, draw]() mutable { produce(draw); })
    {
    }

    /** Stops a producer the replay left early, then joins it. */
    ~OpProducer()
    {
        {
            base::MutexLock lock(mu_);
            stopped_ = true;
        }
        freed_.notifyOne();
        thread_.join();
    }

    OpProducer(const OpProducer &) = delete;
    OpProducer &operator=(const OpProducer &) = delete;

    std::uint64_t
    blocks() const
    {
        return (ops_ + YcsbDriver::kOpsPerBlock - 1) /
               YcsbDriver::kOpsPerBlock;
    }

    std::uint64_t
    blockOps(std::uint64_t b) const
    {
        return std::min<std::uint64_t>(YcsbDriver::kOpsPerBlock,
                                       ops_ - b * YcsbDriver::kOpsPerBlock);
    }

    /** Block @p b's ops, once the producer has drawn them. */
    const std::uint64_t *
    acquire(std::uint64_t b) MCLOCK_EXCLUDES(mu_)
    {
        base::MutexLock lock(mu_);
        while (published_ <= b)
            filled_.wait(mu_);
        return blocks_[b % kBlocks].data();
    }

    /** Block @p b is replayed; the producer may overwrite it. */
    void
    release(std::uint64_t b) MCLOCK_EXCLUDES(mu_)
    {
        {
            base::MutexLock lock(mu_);
            released_ = b + 1;
        }
        freed_.notifyOne();
    }

  private:
    static constexpr std::size_t kBlocks = 4;

    template <typename Draw>
    void
    produce(Draw &draw) MCLOCK_EXCLUDES(mu_)
    {
        for (std::uint64_t b = 0; b < blocks(); ++b) {
            {
                base::MutexLock lock(mu_);
                while (b - released_ >= kBlocks && !stopped_)
                    freed_.wait(mu_);
                if (stopped_)
                    return;
            }
            std::uint64_t *block = blocks_[b % kBlocks].data();
            for (std::uint64_t i = 0, n = blockOps(b); i < n; ++i)
                block[i] = draw();
            {
                base::MutexLock lock(mu_);
                published_ = b + 1;
            }
            filled_.notifyOne();
        }
    }

    const std::uint64_t ops_;
    base::Mutex mu_;
    base::CondVar filled_;  ///< published_ grew
    base::CondVar freed_;   ///< released_ grew, or stopped_ was set
    std::uint64_t published_ MCLOCK_GUARDED_BY(mu_) = 0;
    std::uint64_t released_ MCLOCK_GUARDED_BY(mu_) = 0;
    bool stopped_ MCLOCK_GUARDED_BY(mu_) = false;
    std::array<std::array<std::uint64_t, YcsbDriver::kOpsPerBlock>,
               kBlocks>
        blocks_;
    // Declared last: the thread uses every member above.
    // mclock-lint: thread-ok(one producer per YCSB phase, joined by the destructor; it touches only the ring and the draw)
    std::thread thread_;
};

}  // namespace

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

    // A phase draws from one generator (D from latest, the rest from
    // zipf), and each constructor sums zeta over every record.
    std::optional<ScrambledZipfianGenerator> zipf;
    std::optional<LatestGenerator> latest;
    if (w == YcsbWorkload::D)
        latest.emplace(recordsLoaded_, cfg_.zipfTheta);
    else
        zipf.emplace(recordsLoaded_, cfg_.zipfTheta);
    std::uint64_t items = recordsLoaded_;
    // rng_, zipf, latest and items belong to the producer until the
    // join at the end of this scope.
    OpProducer producer(cfg_.opsPerWorkload, [&] {
        return drawOp(w, rng_, zipf, latest, items);
    });

    const SimTime start = sim_.now();
    for (std::uint64_t b = 0; b < producer.blocks(); ++b) {
        const std::uint64_t *block = producer.acquire(b);
        for (std::uint64_t i = 0, n = producer.blockOps(b); i < n; ++i) {
            const std::uint64_t recno =
                block[i] & ((1ull << kKindShift) - 1);
            switch (static_cast<OpKind>(block[i] >> kKindShift)) {
              case OpKind::Read:
                doRead(recno);
                break;
              case OpKind::Update:
                doUpdate(recno);
                break;
              case OpKind::Insert:
                doInsert();
                break;
              case OpKind::ReadModifyWrite:
                store_->readModifyWrite(keyOf(recno));
                break;
            }
        }
        producer.release(b);
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
