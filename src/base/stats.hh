/**
 * @file
 * Lightweight statistics: scalar summaries and histograms. Event
 * counters live in stats::VmStat (stats/vmstat.hh).
 */

#ifndef MCLOCK_BASE_STATS_HH_
#define MCLOCK_BASE_STATS_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mclock {

/** Running scalar summary: count / sum / min / max / mean / variance. */
class Summary
{
  public:
    void add(double v);
    void merge(const Summary &other);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** Population variance (Welford). */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Fixed-bucket histogram over [lo, hi) with linear buckets plus underflow
 * and overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    double bucketLow(std::size_t i) const;
    /** Approximate quantile q in [0,1] by linear interpolation. */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

}  // namespace mclock

#endif  // MCLOCK_BASE_STATS_HH_
