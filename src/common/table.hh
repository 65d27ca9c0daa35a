/**
 * @file
 * ASCII table and CSV rendering for the benchmark harness.
 *
 * Every figure and table reproduced from the paper is printed through
 * this formatter so that every experiment shares one output style.
 */

#ifndef SDSP_COMMON_TABLE_HH
#define SDSP_COMMON_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sdsp
{

/**
 * A rectangular table of strings with a header row, rendered either as
 * an aligned ASCII table or as CSV.
 */
class Table
{
  public:
    /** @param header Column titles; fixes the column count. */
    explicit Table(std::vector<std::string> header);

    /** Append a full row. Fatal if the arity mismatches the header. */
    void addRow(std::vector<std::string> row);

    /** Start a new row built cell-by-cell with cell(). */
    void beginRow();

    /** Append one cell to the row opened by beginRow(). */
    void cell(const std::string &text);

    /** Append a formatted numeric cell (printf %.*f). */
    void cell(double value, int precision = 2);

    /** Append an integer cell. */
    void cell(std::uint64_t value);

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

    /** Render as an aligned ASCII table with a rule under the header. */
    std::string toAscii() const;

    /** Render as RFC-4180-ish CSV (quotes only when needed). */
    std::string toCsv() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace sdsp

#endif // SDSP_COMMON_TABLE_HH
