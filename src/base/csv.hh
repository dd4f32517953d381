/**
 * @file
 * Minimal in-memory CSV writer for figure data series.
 */

#ifndef MCLOCK_BASE_CSV_HH_
#define MCLOCK_BASE_CSV_HH_

#include <sstream>
#include <string>
#include <vector>

namespace mclock {

/** Builds CSV text in memory; quoting is applied when needed. */
class CsvWriter
{
  public:
    void writeHeader(const std::vector<std::string> &cols);
    void writeRow(const std::vector<std::string> &cols);

    /** The rows written so far. */
    std::string str() const;

  private:
    static std::string escape(const std::string &field);

    std::ostringstream mem_;
};

}  // namespace mclock

#endif  // MCLOCK_BASE_CSV_HH_
