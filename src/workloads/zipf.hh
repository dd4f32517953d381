/**
 * @file
 * YCSB request-distribution generators.
 *
 * Ports of the generators in the YCSB core package: zipfian (with the
 * Gray et al. incremental zeta computation), scrambled zipfian (zipfian
 * rank hashed over the key space so popular keys are spread uniformly),
 * latest (zipfian over recency of insertion), and uniform.
 */

#ifndef MCLOCK_WORKLOADS_ZIPF_HH_
#define MCLOCK_WORKLOADS_ZIPF_HH_

#include <cstdint>

#include "base/hash.hh"
#include "base/rng.hh"

namespace mclock {
namespace workloads {

/** Zipfian generator over [0, n) with parameter theta (YCSB default .99). */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw the next rank (0 = most popular). */
    std::uint64_t next(Rng &rng);

    /** Grow the item count (used by the latest distribution on insert). */
    void setItemCount(std::uint64_t n);

    std::uint64_t itemCount() const { return items_; }

  private:
    static double zetaStatic(std::uint64_t st, std::uint64_t n,
                             double theta, double initial);
    void computeConstants();

    std::uint64_t items_;
    double theta_;
    double zetaN_;
    std::uint64_t zetaComputedTo_;
    double alpha_;
    double zeta2Theta_;
    /** u * zeta(n) below this (and >= 1) draws rank 1: 1 + 0.5^theta. */
    double rankOneBound_;
    double eta_;
};

/**
 * Scrambled zipfian: zipfian popularity ranks mapped through a hash so
 * hot items are uniformly spread over the key space (YCSB's default for
 * workloads A/B/C/F).
 */
class ScrambledZipfianGenerator
{
  public:
    explicit ScrambledZipfianGenerator(std::uint64_t n,
                                       double theta = 0.99);

    std::uint64_t next(Rng &rng);

  private:
    ZipfianGenerator zipf_;
    std::uint64_t items_;
};

/**
 * Latest distribution: most recently inserted records are most popular
 * (YCSB workload D). Call setItemCount() as records are inserted.
 */
class LatestGenerator
{
  public:
    explicit LatestGenerator(std::uint64_t n, double theta = 0.99);

    std::uint64_t next(Rng &rng);
    void setItemCount(std::uint64_t n);

  private:
    ZipfianGenerator zipf_;
    std::uint64_t items_;
};

/** FNV-1a 64-bit hash (the scrambler YCSB uses). */
inline std::uint64_t
fnv1a64(std::uint64_t v)
{
    return Fnv1a().word(v).value();
}

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_ZIPF_HH_
