#include "util/csv.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/expects.hpp"

namespace veritas::util {

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& field) {
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

void CsvWriter::header(const std::vector<std::string>& names) {
  VERITAS_EXPECTS(!header_written_ && rows_ == 0);
  VERITAS_EXPECTS(!names.empty());
  columns_ = names.size();
  header_written_ = true;
  write_fields(names);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (columns_ == 0) columns_ = fields.size();
  VERITAS_EXPECTS(fields.size() == columns_);
  write_fields(fields);
  ++rows_;
}

void CsvWriter::row(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (const double v : values) fields.push_back(format_double(v));
  row(fields);
}

void CsvWriter::write_fields(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << (needs_quoting(fields[i]) ? quote(fields[i]) : fields[i]);
  }
  out_ << '\n';
}

NumericCsvReader::NumericCsvReader(std::string_view text,
                                   std::span<const std::string_view> columns)
    : text_(text),
      columns_(columns),
      values_(columns.size()),
      last_cell_(columns.size()) {
  VERITAS_EXPECTS(!columns_.empty());
  std::vector<bool> found(columns_.size(), false);
  const bool has_header = start_record();
  const std::size_t header_line = line_;
  if (has_header) {
    bool last = false;
    while (!last) {
      const std::string_view name = next_field(last);
      std::size_t k = 0;
      while (k < columns_.size() && columns_[k] != name) ++k;
      if (k == columns_.size()) {
        slot_.push_back(kIgnored);
        continue;
      }
      if (found[k]) {
        throw ContractViolation("CSV line " + std::to_string(header_line) +
                                ": duplicate column '" +
                                std::string(name) + "'");
      }
      found[k] = true;
      slot_.push_back(k);
    }
  }
  for (std::size_t k = 0; k < columns_.size(); ++k) {
    if (!found[k]) {
      throw ContractViolation("CSV line " + std::to_string(header_line) +
                              ": missing column '" +
                              std::string(columns_[k]) + "'");
    }
  }
}

bool NumericCsvReader::next() {
  if (!start_record()) return false;
  row_line_ = line_;
  std::size_t width = 0;
  bool last = false;
  while (!last) {
    const std::size_t k = width < slot_.size() ? slot_[width] : kIgnored;
    ++width;
    if (k != kIgnored && read_plain_number(k, last)) continue;
    // Ignored columns, quoted cells and cells the fast path refused.
    const std::size_t cell_line = line_;
    const std::string_view cell = next_field(last);
    if (k == kIgnored) continue;
    double value = 0.0;
    const char* end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
      throw ContractViolation("CSV line " + std::to_string(cell_line) +
                              ", column '" + std::string(columns_[k]) +
                              "': not a finite number: '" +
                              std::string(cell) + "'");
    }
    values_[k] = value;
    last_cell_[k] = {};
  }
  if (width != slot_.size()) {
    throw ContractViolation("CSV line " + std::to_string(row_line_) + ": " +
                            std::to_string(width) + " fields, header has " +
                            std::to_string(slot_.size()));
  }
  return true;
}

// The fast path for a wanted cell: a plain finite number that runs up to
// the next separator. from_chars finds where the number ends, so the cell
// is not scanned first; and a cell repeating the text of the cell above
// (session logs repeat most columns, see docs/ARCHITECTURE.md) keeps the
// value read there. Anything else (quotes, CR, bad text) returns false
// and takes the general path, which unescapes it or reports it.
bool NumericCsvReader::read_plain_number(std::size_t k, bool& last) {
  const std::string_view rest = text_.substr(pos_);
  const auto ends_cell = [&](std::size_t n) {
    return n == rest.size() || rest[n] == ',' || rest[n] == '\n';
  };
  const std::string_view above = last_cell_[k];
  std::size_t n = above.size();
  if (n == 0 || !rest.starts_with(above) || !ends_cell(n)) {
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), value);
    n = static_cast<std::size_t>(ptr - rest.data());
    if (ec != std::errc{} || !ends_cell(n) || !std::isfinite(value)) {
      return false;
    }
    values_[k] = value;
    last_cell_[k] = rest.substr(0, n);
  }
  end_field(pos_ + n, last);
  return true;
}

void NumericCsvReader::reject(std::size_t k, std::string_view why) const {
  VERITAS_EXPECTS(k < columns_.size());
  throw ContractViolation("CSV line " + std::to_string(row_line_) +
                          ", column '" + std::string(columns_[k]) + "': " +
                          std::string(why));
}

// A line holding nothing but carriage returns is blank and skipped.
bool NumericCsvReader::start_record() {
  for (;;) {
    std::size_t p = pos_;
    while (p < text_.size() && text_[p] == '\r') ++p;
    if (p == text_.size()) {
      pos_ = p;
      return false;
    }
    pos_ = p;
    if (text_[p] != '\n') return true;
    ++pos_;
    ++line_;
  }
}

// Plain fields are views into the text. A quote or a stray carriage return
// hands the field to quoted_field(), which unescapes it.
std::string_view NumericCsvReader::next_field(bool& last) {
  const std::size_t start = pos_;
  std::size_t p = start;
  for (; p < text_.size(); ++p) {
    const char c = text_[p];
    if (c == ',' || c == '\n') break;
    if (c == '"' || c == '\r') return quoted_field(start, p, last);
  }
  end_field(p, last);
  return text_.substr(start, p - start);
}

// Outside quotes a carriage return is dropped; inside them every byte is
// kept and a doubled quote stands for one quote.
std::string_view NumericCsvReader::quoted_field(std::size_t start,
                                                std::size_t pos, bool& last) {
  quoted_.assign(text_.substr(start, pos - start));
  bool in_quotes = false;
  std::size_t p = pos;
  for (; p < text_.size(); ++p) {
    const char c = text_[p];
    if (in_quotes) {
      if (c != '"') {
        if (c == '\n') ++line_;
        quoted_ += c;
      } else if (p + 1 < text_.size() && text_[p + 1] == '"') {
        quoted_ += '"';
        ++p;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',' || c == '\n') {
      break;
    } else if (c != '\r') {
      quoted_ += c;
    }
  }
  end_field(p, last);
  return quoted_;
}

// `pos` is the separator, line break or end of text that ends a field.
void NumericCsvReader::end_field(std::size_t pos, bool& last) {
  last = pos == text_.size() || text_[pos] == '\n';
  if (pos < text_.size() && text_[pos] == '\n') ++line_;
  pos_ = pos == text_.size() ? pos : pos + 1;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace veritas::util
