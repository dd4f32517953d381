/**
 * @file
 * Page-access heatmap (paper Fig. 1).
 *
 * Randomly samples pages, sorts them by ascending identifier (the
 * figure's Y axis), buckets execution time (X axis), and reports the
 * access frequency of each sampled page in each time segment.
 */

#ifndef MCLOCK_TRACE_HEATMAP_HH_
#define MCLOCK_TRACE_HEATMAP_HH_

#include <cstdint>
#include <ostream>
#include <vector>

#include "base/csv.hh"
#include "base/rng.hh"
#include "trace/access_trace.hh"

namespace mclock {
namespace trace {

/** Heatmap construction parameters. */
struct HeatmapConfig
{
    std::size_t sampledPages = 50;  ///< paper: 50 sampled pages
    std::size_t timeBuckets = 60;
    std::uint64_t seed = 7;

    bool operator==(const HeatmapConfig &) const = default;
};

/** Sampled-page x time-bucket access-frequency matrix. */
class Heatmap
{
  public:
    /**
     * Build from a trace.
     * @param trace    recorded accesses
     * @param numPages id space to sample from ([0, numPages))
     */
    static Heatmap build(const AccessTrace &trace, std::size_t numPages,
                         HeatmapConfig cfg = {});

    std::size_t numRows() const { return pages_.size(); }
    std::size_t numBuckets() const { return buckets_; }
    std::uint32_t pageAt(std::size_t row) const { return pages_[row]; }
    std::uint64_t count(std::size_t row, std::size_t bucket) const;

    /** CSV: header bucket times, one row per sampled page. */
    void writeCsv(CsvWriter &csv) const;

    /** Coarse ASCII rendering (' ', '.', '+', '#' by intensity). */
    void render(std::ostream &os) const;

  private:
    std::vector<std::uint32_t> pages_;       ///< sorted sampled ids
    std::size_t buckets_ = 0;
    std::vector<std::uint64_t> counts_;      ///< rows x buckets
};

}  // namespace trace
}  // namespace mclock

#endif  // MCLOCK_TRACE_HEATMAP_HH_
