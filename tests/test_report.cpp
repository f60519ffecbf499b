// Table / CSV reporting tests, plus the JSON schema of solver diagnostics
// and run resilience state.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/run_context.h"
#include "core/status.h"
#include "report/diagnostics.h"
#include "report/table.h"

namespace dsmt::report {
namespace {

TEST(Table, AlignedRendering) {
  Table t({"Metal", "j_peak"});
  t.add_row({"M5", "1.25"});
  t.add_row({"M6", "0.99"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Metal"), std::string::npos);
  EXPECT_NE(s.find("M6"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // All lines share the header width (alignment check).
  std::istringstream is(s);
  std::string line, header;
  std::getline(is, header);
  std::getline(is, line);  // rule
  EXPECT_GE(line.size(), header.size() - 1);
}

TEST(Table, RowCountMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumericRowsAndCsv) {
  Table t({"x", "y"});
  t.add_row_values({1.23456, 2.0}, 2);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("x,y"), std::string::npos);
  EXPECT_NE(csv.find("1.23,2.00"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"name"});
  t.add_row({"a,b"});
  EXPECT_NE(t.to_csv().find("\"a,b\""), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

TEST(WriteCsv, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/dsmt_report_test.csv";
  write_csv(path, {"t", "v"}, {{0.0, 1.0, 2.0}, {5.0, 6.0, 7.0}});
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "t,v");
  int rows = 0;
  std::string line;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(WriteCsv, RaggedDataThrows) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a"}, {}), std::invalid_argument);
}

TEST(WriteCsv, FailedWriteLeavesNoPartialFile) {
  // The staged write may not leave a half-written target when the
  // destination directory does not exist.
  const std::string path = ::testing::TempDir() + "/no_such_dir/out.csv";
  EXPECT_THROW(write_csv(path, {"t"}, {{1.0}}), std::runtime_error);
  std::ifstream is(path);
  EXPECT_FALSE(is.good());
}

TEST(DiagJson, InterruptionStatusNamesAreStable) {
  // The JSON schema is consumed by downstream tooling: the status strings
  // for the resilience codes are part of the contract.
  EXPECT_STREQ(core::status_name(core::StatusCode::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(core::status_name(core::StatusCode::kCancelled), "cancelled");
  EXPECT_TRUE(core::is_interruption(core::StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(core::is_interruption(core::StatusCode::kCancelled));
  EXPECT_FALSE(core::is_interruption(core::StatusCode::kOk));

  core::SolverDiag diag;
  diag.kernel = "numeric/brent";
  diag.record("numeric/brent", core::StatusCode::kDeadlineExceeded, 12, 0.5,
              "run interrupted");
  const std::string json = diag_to_json(diag).dump(2);
  EXPECT_NE(json.find("\"status\": \"deadline-exceeded\""), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"run interrupted\""), std::string::npos);
}

TEST(RunJson, SchemaCarriesDeadlineAndHeartbeat) {
  core::RunContext ctx =
      core::RunContext::with_deadline_after(std::chrono::hours(1));
  const std::string json = run_to_json(ctx).dump(2);
  EXPECT_NE(json.find("\"deadline_armed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_remaining_s\""), std::string::npos);
  EXPECT_NE(json.find("\"cancelled\": false"), std::string::npos);
  EXPECT_NE(json.find("\"beats\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"checkpoints\""), std::string::npos);

  core::RunContext bare;
  bare.cancel().request_cancel();
  const std::string cancelled = run_to_json(bare).dump(2);
  EXPECT_NE(cancelled.find("\"deadline_armed\": false"), std::string::npos);
  EXPECT_EQ(cancelled.find("\"deadline_remaining_s\""), std::string::npos);
  EXPECT_NE(cancelled.find("\"cancelled\": true"), std::string::npos);
}

}  // namespace
}  // namespace dsmt::report
