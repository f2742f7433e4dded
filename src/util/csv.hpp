// CSV for experiment artifacts and recorded inputs.
//
// Writing: CsvWriter streams rows, quoting fields that hold separators,
// quotes or line breaks, and format_double prints doubles so they read
// back bit for bit.
//
// Reading: NumericCsvReader reads a table of numbers against a fixed
// schema (session logs, bandwidth traces). The caller names the columns it
// needs; the header is resolved once, in any order, and extra columns are
// ignored. Each wanted cell is then read in place: std::from_chars parses
// it straight into a reused row of doubles and finds where it ends, and a
// cell repeating the text of the cell above keeps the value read there.
// No cell is copied and no column is looked up by name per row. Quoted
// fields (with doubled quotes, separators and line breaks inside), CRLF
// line ends and blank lines are accepted; only a quoted field is copied,
// into one reused buffer. Malformed input throws ContractViolation naming
// the 1-based line and the column.
#pragma once

#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace veritas::util {

/// Streams rows of a CSV table. The header (if any) is written first; each
/// row must then have exactly as many fields as the header.
class CsvWriter {
 public:
  /// Writes to an externally owned stream (kept by reference).
  explicit CsvWriter(std::ostream& out);

  /// Sets the header row; must be called before the first data row.
  void header(const std::vector<std::string>& names);

  /// Writes one row of string fields.
  void row(const std::vector<std::string>& fields);

  /// Writes one row of numeric fields (formatted with max_digits10).
  void row(const std::vector<double>& values);

  /// Number of data rows written so far.
  std::size_t rows_written() const noexcept { return rows_; }

 private:
  void write_fields(const std::vector<std::string>& fields);

  std::ostream& out_;
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

/// Reads the data rows of a numeric CSV table, one at a time:
///
///   NumericCsvReader reader(text, kColumns);
///   while (reader.next()) use(reader[0], reader[1]);
///
/// The constructor throws ContractViolation when a wanted column is
/// missing (also when the text has no data rows) or appears twice.
/// next() throws it on a row whose width differs from the header's or
/// whose wanted cell is not a finite number in full.
class NumericCsvReader {
 public:
  /// `text` and `columns` are kept by reference and must outlive the
  /// reader.
  NumericCsvReader(std::string_view text,
                   std::span<const std::string_view> columns);

  /// Reads the next data row; false once the text is exhausted.
  bool next();

  /// Value of wanted column `k` (an index into `columns`) in this row.
  double operator[](std::size_t k) const noexcept { return values_[k]; }

  /// Throws ContractViolation naming this row's line and column `k`, for
  /// checks the caller's schema adds (say, a size that must be positive).
  [[noreturn]] void reject(std::size_t k, std::string_view why) const;

 private:
  static constexpr std::size_t kIgnored = static_cast<std::size_t>(-1);

  bool start_record();
  bool read_plain_number(std::size_t k, bool& last);
  std::string_view next_field(bool& last);
  std::string_view quoted_field(std::size_t start, std::size_t pos,
                                bool& last);
  void end_field(std::size_t pos, bool& last);

  std::string_view text_;
  std::span<const std::string_view> columns_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;      ///< line of text_[pos_]
  std::size_t row_line_ = 0;  ///< line the current row starts on
  std::string quoted_;        ///< unescaped copy of the last quoted field
  std::vector<std::size_t> slot_;  ///< header position -> wanted column
  std::vector<double> values_;     ///< current row, by wanted column
  std::vector<std::string_view> last_cell_;  ///< plain text behind values_
};

/// Formats a double with round-trip precision.
std::string format_double(double v);

}  // namespace veritas::util
