#include "base/csv.hh"

namespace mclock {

std::string
CsvWriter::escape(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string escaped = "\"";
    for (char c : field) {
        if (c == '"')
            escaped += '"';
        escaped += c;
    }
    escaped += '"';
    return escaped;
}

void
CsvWriter::writeHeader(const std::vector<std::string> &cols)
{
    writeRow(cols);
}

void
CsvWriter::writeRow(const std::vector<std::string> &cols)
{
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (i)
            mem_ << ',';
        mem_ << escape(cols[i]);
    }
    mem_ << '\n';
}

std::string
CsvWriter::str() const
{
    return mem_.str();
}

}  // namespace mclock
