// obs::BenchReport: canonical serialisation (schema+bench first, sorted
// user fields, deterministic doubles) and the file validator CI runs over
// BENCH_*.json artifacts.
#include "obs/bench_report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/error.hpp"

namespace obs = drongo::obs;

namespace {

/// Writes `content` to a unique temp file; removed in the destructor. The
/// name carries the process id: ctest -j runs each case in its own
/// process, all sharing one temp dir.
class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    path_ = std::string(::testing::TempDir()) + "bench_report_test_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter()++) + ".json";
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::string path_;
};

TEST(BenchReport, SerialisesSchemaFirstThenSortedFields) {
  obs::BenchReport report("headline");
  report.set_number("zeta", 0.5);
  report.set_integer("alpha", 42);
  report.set_bool("ok", true);
  report.set_string("note", "fast");
  EXPECT_EQ(report.to_json(),
            "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"headline\","
            "\"alpha\":42,\"note\":\"fast\",\"ok\":true,\"zeta\":0.5}\n");
}

TEST(BenchReport, UserFieldsCannotShadowSchemaOrBench) {
  obs::BenchReport report("b");
  report.set_string("schema", "fake");
  report.set_string("bench", "fake");
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("fake"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"drongo-bench-report-v1\""), std::string::npos);
}

TEST(BenchReport, EmptyBenchNameThrows) {
  EXPECT_THROW(obs::BenchReport(""), drongo::net::InvalidArgument);
}

TEST(BenchReport, DefaultPathHonoursEnvOverride) {
  obs::BenchReport report("micro");
  ::unsetenv("DRONGO_BENCH_OUT");
  EXPECT_EQ(report.default_path(), "BENCH_micro.json");
  ::setenv("DRONGO_BENCH_OUT", "/tmp/custom.json", 1);
  EXPECT_EQ(report.default_path(), "/tmp/custom.json");
  ::unsetenv("DRONGO_BENCH_OUT");
}

TEST(BenchReport, WriteFileRoundTripsThroughValidator) {
  obs::BenchReport report("roundtrip");
  report.set_number("speedup", 3.25);
  report.set_bool("identical_to_serial", true);
  const TempFile placeholder("");  // reserve a unique path
  report.write_file(placeholder.path());
  EXPECT_EQ(obs::validate_bench_report_file(placeholder.path()), "");
}

TEST(Validator, AcceptsAHandWrittenFlatReport) {
  const TempFile file(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"x\",\"n\":-1.5e3}\n");
  EXPECT_EQ(obs::validate_bench_report_file(file.path()), "");
}

TEST(Validator, RejectsBadInputs) {
  EXPECT_NE(obs::validate_bench_report_file("/no/such/file.json"), "");

  const TempFile empty("");
  EXPECT_NE(obs::validate_bench_report_file(empty.path()), "");

  const TempFile not_object("[1, 2]\n");
  EXPECT_NE(obs::validate_bench_report_file(not_object.path()), "");

  const TempFile wrong_schema(
      "{\"schema\":\"drongo-bench-report-v999\",\"bench\":\"x\"}\n");
  EXPECT_NE(obs::validate_bench_report_file(wrong_schema.path()),
            "");

  const TempFile missing_bench("{\"schema\":\"drongo-bench-report-v1\"}\n");
  EXPECT_NE(obs::validate_bench_report_file(missing_bench.path()), "");

  const TempFile nested(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"x\",\"deep\":{\"a\":1}}\n");
  EXPECT_NE(obs::validate_bench_report_file(nested.path()), "");

  const TempFile trailing(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"x\"}\nextra\n");
  EXPECT_NE(obs::validate_bench_report_file(trailing.path()), "");
}

TEST(Validator, EnforcesPerBenchRequiredFields) {
  const std::map<std::string, std::vector<std::string>> required = {
      {"daemon", {"qps", "p99_ms"}}};

  const TempFile complete(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"daemon\","
      "\"p99_ms\":0.4,\"qps\":120000}\n");
  EXPECT_EQ(obs::validate_bench_report_file(complete.path(), required), "");

  const TempFile missing_qps(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"daemon\","
      "\"p99_ms\":0.4}\n");
  const std::string error =
      obs::validate_bench_report_file(missing_qps.path(), required);
  EXPECT_NE(error.find("qps"), std::string::npos) << error;

  // Benches without a schema entry still validate structurally only.
  const TempFile other_bench(
      "{\"schema\":\"drongo-bench-report-v1\",\"bench\":\"unlisted\"}\n");
  EXPECT_EQ(obs::validate_bench_report_file(other_bench.path(), required), "");
}

}  // namespace
