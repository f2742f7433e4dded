#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/expects.hpp"

namespace veritas::util {
namespace {

using Columns = std::vector<std::string_view>;
using Rows = std::vector<std::vector<double>>;

/// Every data row of `text`, as the values of `columns` in their order.
Rows read_all(std::string_view text, const Columns& columns) {
  NumericCsvReader reader(text, columns);
  Rows rows;
  while (reader.next()) {
    std::vector<double> row;
    for (std::size_t k = 0; k < columns.size(); ++k) row.push_back(reader[k]);
    rows.push_back(row);
  }
  return rows;
}

/// The message read_all() throws on `text`; fails the test if it throws
/// nothing or anything other than ContractViolation.
std::string rejection(std::string_view text, const Columns& columns) {
  try {
    read_all(text, columns);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return {};
}

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"a", "b"});
  writer.row(std::vector<std::string>{"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
  EXPECT_EQ(writer.rows_written(), 1u);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row(std::vector<std::string>{"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriter, NumericRowsRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"v"});
  writer.row(std::vector<double>{0.1234567890123456789});
  const Rows rows = read_all(out.str(), {"v"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0], 0.1234567890123456789);
}

TEST(CsvWriter, RejectsWidthMismatch) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"a", "b"});
  EXPECT_THROW(writer.row(std::vector<std::string>{"only-one"}),
               ContractViolation);
}

TEST(CsvWriter, RejectsLateHeader) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.row(std::vector<std::string>{"1"});
  EXPECT_THROW(writer.header({"a"}), ContractViolation);
}

TEST(CsvParse, SimpleTable) {
  const Rows rows = read_all("a,b\n1,2\n3,4\n", {"a", "b"});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], 4.0);
}

TEST(CsvParse, HandlesCrLf) {
  const Rows rows = read_all("a,b\r\n1,2\r\n", {"a", "b"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 1.0);
  EXPECT_EQ(rows[0][1], 2.0);
}

TEST(CsvParse, MissingFinalNewline) {
  const Rows rows = read_all("a\n1", {"a"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 1.0);
}

// A text cell cannot be read as a number, so the unquoted text shows in
// the rejection; the quoted separator must not split the row either.
TEST(CsvParse, QuotedFieldWithComma) {
  const std::string text = "a,b\n\"x,y\",z\n";
  EXPECT_NE(rejection(text, {"a"}).find("'x,y'"), std::string::npos);
  EXPECT_NE(rejection(text, {"b"}).find("'z'"), std::string::npos);
}

TEST(CsvParse, EscapedQuotes) {
  EXPECT_NE(rejection("a\n\"say \"\"hi\"\"\"\n", {"a"}).find("'say \"hi\"'"),
            std::string::npos);
}

TEST(CsvParse, QuotedNewline) {
  const std::string text = "a,b\n\"multi\nline\",2\n";
  const Rows rows = read_all(text, {"b"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 2.0);
  EXPECT_NE(rejection(text, {"a"}).find("'multi\nline'"), std::string::npos);
}

TEST(CsvParse, RejectsRaggedRows) {
  EXPECT_THROW(read_all("a,b\n1\n", {"a"}), ContractViolation);
  EXPECT_THROW(read_all("a,b\n1,2,3\n", {"a", "b"}), ContractViolation);
}

TEST(CsvTable, ColumnLookup) {
  const Rows rows = read_all("x,y\n1,2\n", {"y"});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 2.0);
  EXPECT_THROW(read_all("x,y\n1,2\n", {"z"}), ContractViolation);
}

TEST(CsvTable, NumberParsesAndRejects) {
  const Columns columns{"v"};
  NumericCsvReader reader("v\n1.5\nnot-a-number\n", columns);
  ASSERT_TRUE(reader.next());
  EXPECT_DOUBLE_EQ(reader[0], 1.5);
  EXPECT_THROW(reader.next(), ContractViolation);
}

TEST(CsvRoundTrip, WriterThenParser) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"name", "value"});
  writer.row(std::vector<std::string>{"alpha, beta", "1"});
  writer.row(std::vector<std::string>{"q\"q", "2"});
  EXPECT_EQ(read_all(out.str(), {"value"}), (Rows{{1.0}, {2.0}}));
  EXPECT_NE(rejection(out.str(), {"name"}).find("'alpha, beta'"),
            std::string::npos);
}

TEST(NumericCsvReader, AnyColumnOrderAndExtraColumns) {
  EXPECT_EQ(read_all("b,note,a\n2,\"x,y\",1\n4,,3\n", {"a", "b"}),
            (Rows{{1.0, 2.0}, {3.0, 4.0}}));
}

TEST(NumericCsvReader, QuotedNumericCell) {
  EXPECT_EQ(read_all("a,b\n\"1.5\",\"-2e-3\"\n", {"a", "b"}),
            (Rows{{1.5, -2e-3}}));
}

TEST(NumericCsvReader, SkipsBlankLines) {
  EXPECT_EQ(read_all("\r\na,b\r\n\r\n1,2\n\n3,4", {"a", "b"}),
            (Rows{{1.0, 2.0}, {3.0, 4.0}}));
}

TEST(NumericCsvReader, HeaderOnlyHasNoRows) {
  EXPECT_TRUE(read_all("a,b\n", {"b", "a"}).empty());
}

TEST(NumericCsvReader, RejectsNonFiniteCells) {
  for (const char* cell : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    const std::string message =
        rejection("a,b\n1,2\n3," + std::string(cell) + "\n", {"a", "b"});
    EXPECT_NE(message.find("line 3, column 'b'"), std::string::npos)
        << message;
  }
}

TEST(NumericCsvReader, RejectsPartialAndEmptyCells) {
  for (const char* cell : {"", " 1", "1 ", "+1", "1.5x", "0x10"}) {
    EXPECT_THROW(read_all("a,b\n" + std::string(cell) + ",1\n", {"a"}),
                 ContractViolation)
        << "'" << cell << "'";
  }
}

TEST(NumericCsvReader, RejectsMissingColumnWithoutDataRows) {
  EXPECT_NE(rejection("a\n", {"a", "b"}).find("line 1: missing column 'b'"),
            std::string::npos);
  EXPECT_NE(rejection("", {"a"}).find("missing column 'a'"),
            std::string::npos);
}

TEST(NumericCsvReader, RejectsDuplicateColumn) {
  EXPECT_NE(rejection("a,b,a\n1,2,3\n", {"a"}).find("duplicate column 'a'"),
            std::string::npos);
  // A repeated column nobody asked for is ignored like any extra column.
  EXPECT_EQ(read_all("x,a,x\n1,2,3\n", {"a"}), (Rows{{2.0}}));
}

TEST(NumericCsvReader, LinesCountQuotedLineBreaks) {
  const std::string message = rejection("a,b\n\"x\ny\",1\n2,z\n", {"b"});
  EXPECT_NE(message.find("line 4, column 'b'"), std::string::npos) << message;
}

TEST(NumericCsvReader, RejectNamesRowLineAndColumn) {
  const Columns columns{"a", "b"};
  NumericCsvReader reader("a,b\n\n1,2\n", columns);
  ASSERT_TRUE(reader.next());
  try {
    reader.reject(1, "must be odd");
    FAIL() << "reject() returned";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.what(), "CSV line 3, column 'b': must be odd");
  }
}

}  // namespace
}  // namespace veritas::util
