// core::scenario — loader error paths, record/verify round-trips, and
// the golden-mismatch report (first diverging line).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/scenario.h"

namespace svcdisc::core {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test, removed on teardown.
class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("svcdisc_scenario_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path() const { return dir_.string(); }

  void write_spec(const std::string& json) {
    std::ofstream out(dir_ / "scenario.json", std::ios::binary);
    out << json;
  }

  fs::path dir_;
};

// Small enough to run a campaign in well under a second.
constexpr const char* kFastSpec = R"({
  "name": "fast",
  "preset": "tiny",
  "seed": 5,
  "campus": {"duration_days": 0.25},
  "engine": {"scans": 1, "first_scan_offset_hours": 1.0}
})";

TEST_F(ScenarioTest, MissingDirectoryFailsWithClearError) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path() + "/nope", &spec, &error));
  EXPECT_NE(error.find("not a scenario directory"), std::string::npos)
      << error;
}

TEST_F(ScenarioTest, MissingSpecFileFails) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST_F(ScenarioTest, CorruptJsonReportsPathAndPosition) {
  write_spec("{\"name\": \"x\",\n  \"preset\": }");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("scenario.json"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST_F(ScenarioTest, TruncatedJsonFails) {
  write_spec(R"({"name": "x", "campus": {"duration_da)");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ScenarioTest, UnknownKeysAreRejectedAtEveryLevel) {
  ScenarioSpec spec;
  std::string error;
  write_spec(R"({"preset": "tiny", "bogus": 1})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
  write_spec(R"({"preset": "tiny", "campus": {"bogus": 1}})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
  write_spec(R"({"preset": "tiny", "engine": {"bogus": 1}})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
}

TEST_F(ScenarioTest, WrongValueTypeNamesTheField) {
  write_spec(R"({"preset": "tiny", "campus": {"duration_days": "long"}})");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("duration_days"), std::string::npos) << error;
}

TEST_F(ScenarioTest, OutOfRangeTimeSpansAreRejectedByName) {
  // Each span must be finite, positive (the offset may be zero) and fit
  // an int64 microsecond count. 1e300 days used to overflow to a
  // negative duration and run; 0 or negative values were ignored.
  const struct {
    const char* block;
    const char* field;
    const char* value;
  } cases[] = {
      {"campus", "duration_days", "1e300"},
      {"campus", "duration_days", "1e999"},  // parses as infinity
      {"campus", "duration_days", "0"},
      {"campus", "duration_days", "-1"},
      {"campus", "duration_days", "1e-20"},  // under one microsecond
      {"engine", "scan_period_hours", "0"},
      {"engine", "scan_period_hours", "-12"},
      {"engine", "scan_period_hours", "1e300"},
      {"engine", "first_scan_offset_hours", "-100"},
      {"engine", "first_scan_offset_hours", "-1"},
      {"engine", "first_scan_offset_hours", "1e300"},
  };
  for (const auto& c : cases) {
    const std::string field = std::string(c.block) + "." + c.field;
    SCOPED_TRACE(field + " = " + c.value);
    write_spec(std::string(R"({"preset": "tiny", ")") + c.block +
               R"(": {")" + c.field + R"(": )" + c.value + "}}");
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(load_scenario(path(), &spec, &error));
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

TEST_F(ScenarioTest, InRangeTimeSpansAreApplied) {
  write_spec(R"({"preset": "tiny",
    "campus": {"duration_days": 0.25},
    "engine": {"scan_period_hours": 2, "first_scan_offset_hours": 0}})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.campus.duration, util::hours(6));
  EXPECT_EQ(spec.engine.scan_period, util::hours(2));
  EXPECT_EQ(spec.engine.first_scan_offset, util::Duration{});
}

TEST_F(ScenarioTest, OutOfRangeIntegersAreRejectedByName) {
  // Integer fields must fit an int (4294967312 used to wrap to 16 and
  // 4294967297 scans to 1), and an explicit scan count must be >= 0
  // (-5 used to be accepted and then ignored as "use the preset").
  const struct {
    const char* block;
    const char* field;
    const char* value;
  } cases[] = {
      {"campus", "scale_block_bits", "4294967312"},
      {"campus", "scale_block_bits", "-4294967296"},
      {"engine", "scans", "4294967297"},
      {"engine", "scans", "2147483648"},
      {"engine", "scans", "-5"},
      {"engine", "scans", "-1"},
      {"engine", "scans", "2.5"},
  };
  for (const auto& c : cases) {
    const std::string field = std::string(c.block) + "." + c.field;
    SCOPED_TRACE(field + " = " + c.value);
    write_spec(std::string(R"({"preset": "tiny", ")") + c.block +
               R"(": {")" + c.field + R"(": )" + c.value + "}}");
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(load_scenario(path(), &spec, &error));
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

TEST_F(ScenarioTest, InRangeIntegersAreApplied) {
  write_spec(R"({"preset": "tiny",
    "campus": {"scale_block_bits": 20},
    "engine": {"scans": 0}})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.campus.scale_block_bits, 20);
  EXPECT_EQ(spec.engine.scan_count, 0);

  write_spec(R"({"preset": "tiny", "engine": {"scans": 2147483647}})");
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.engine.scan_count, 2147483647);
}

TEST_F(ScenarioTest, OutOfRangeFloatsAreRejectedByName) {
  // Fractions are probabilities; every other float is finite,
  // non-negative and capped (traffic_scale -3 and tarpit_delay_sec 1e300
  // used to run, traffic_scale 1e308 to run for ever, and a zero probe
  // rate to fail late inside the token bucket).
  const struct {
    const char* block;
    const char* field;
    const char* value;
  } cases[] = {
      {"campus", "traffic_scale", "-3"},
      {"campus", "traffic_scale", "1e308"},
      {"campus", "traffic_scale", "1e400"},  // parses as infinity
      {"campus", "traffic_scale", "\"2\""},
      {"campus", "probe_rate_per_sec", "0"},
      {"campus", "probe_rate_per_sec", "-7.5"},
      {"campus", "probe_rate_per_sec", "2e6"},
      {"campus", "tarpit_delay_sec", "1e300"},
      {"campus", "tarpit_delay_sec", "-1"},
      {"campus", "cgnat_service_frac", "1.5"},
      {"campus", "iot_churn_frac", "-0.1"},
      {"campus", "scale_live_frac", "7"},
      {"campus", "scale_service_frac", "1.01"},
      {"campus", "scale_echo_frac", "-1"},
      {"campus", "iot_burst_day", "-1"},
      {"campus", "iot_burst_day", "1e9"},
      {"campus", "outage_day", "3651"},
      {"campus", "outage_duration_hours", "-6"},
      {"campus", "outage_duration_hours", "1e12"},
      {"impairment", "rate_pct", "-1"},
      {"impairment", "mean_burst_len", "0.5"},
  };
  for (const auto& c : cases) {
    const std::string field = std::string(c.block) + "." + c.field;
    SCOPED_TRACE(field + " = " + c.value);
    write_spec(std::string(R"({"preset": "tiny", ")") + c.block +
               R"(": {")" + c.field + R"(": )" + c.value + "}}");
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(load_scenario(path(), &spec, &error));
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
}

TEST_F(ScenarioTest, InRangeFloatsAreApplied) {
  // The bounds themselves are accepted.
  write_spec(R"({"preset": "tiny", "campus": {
    "traffic_scale": 100, "probe_rate_per_sec": 1e6,
    "tarpit_delay_sec": 0, "cgnat_service_frac": 1, "iot_churn_frac": 0,
    "scale_live_frac": 1, "scale_service_frac": 0, "scale_echo_frac": 0.5,
    "iot_burst_day": 3650, "outage_day": 0, "outage_duration_hours": 87600}})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.campus.traffic_scale, 100.0);
  EXPECT_EQ(spec.campus.probe_rate_per_sec, 1e6);
  EXPECT_EQ(spec.campus.tarpit_delay_sec, 0.0);
  EXPECT_EQ(spec.campus.cgnat_service_frac, 1.0);
  EXPECT_EQ(spec.campus.scale_live_frac, 1.0);
  EXPECT_EQ(spec.campus.scale_echo_frac, 0.5);
  EXPECT_EQ(spec.campus.iot_burst_day, 3650.0);
  EXPECT_EQ(spec.campus.outage_duration_hours, 87600.0);
}

TEST_F(ScenarioTest, UnknownPresetFails) {
  write_spec(R"({"preset": "huge"})");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown preset"), std::string::npos) << error;
}

TEST_F(ScenarioTest, NameDefaultsToDirectoryBasename) {
  write_spec(R"({"preset": "tiny"})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.name, dir_.filename().string());
}

TEST_F(ScenarioTest, VerifyWithoutGoldensReportsEveryArtifactMissing) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  const VerifyReport report = verify_scenario(spec, artifacts);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.mismatches.size(), artifacts.files.size());
  EXPECT_NE(report.to_string().find("missing golden file"),
            std::string::npos);
}

TEST_F(ScenarioTest, RecordVerifyRoundTripAndDeterminism) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts first;
  ASSERT_TRUE(run_scenario(spec, &first, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, first, /*force=*/false, &error))
      << error;
  // A second, fresh run must be byte-identical to the recorded one.
  ScenarioArtifacts second;
  ASSERT_TRUE(run_scenario(spec, &second, &error)) << error;
  const VerifyReport report = verify_scenario(spec, second);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ScenarioTest, RecordRefusesToClobberWithoutForce) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, artifacts, false, &error)) << error;
  EXPECT_FALSE(record_scenario(spec, artifacts, false, &error));
  EXPECT_NE(error.find("--force"), std::string::npos) << error;
  EXPECT_TRUE(record_scenario(spec, artifacts, true, &error)) << error;
}

TEST_F(ScenarioTest, MismatchReportsFirstDivergingLine) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, artifacts, false, &error)) << error;

  // Corrupt line 2 of the recorded summary and expect the report to
  // point straight at it.
  const fs::path golden = dir_ / "expected" / "summary.txt";
  std::ifstream in(golden, std::ios::binary);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  in.close();
  std::ofstream out(golden, std::ios::binary);
  out << line1 << "\ntampered line\n";
  out.close();

  const VerifyReport report = verify_scenario(spec, artifacts);
  ASSERT_EQ(report.mismatches.size(), 1u);
  const ScenarioMismatch& m = report.mismatches[0];
  EXPECT_EQ(m.file, "summary.txt");
  EXPECT_EQ(m.line, 2u);
  EXPECT_EQ(m.want, "tampered line");
  EXPECT_EQ(m.got, line2);
  EXPECT_NE(report.to_string().find("line 2"), std::string::npos)
      << report.to_string();
}

TEST_F(ScenarioTest, DiscoverFindsOnlySpecDirectoriesSorted) {
  fs::create_directories(dir_ / "b_pack");
  fs::create_directories(dir_ / "a_pack");
  fs::create_directories(dir_ / "not_a_pack");
  std::ofstream(dir_ / "b_pack" / "scenario.json") << "{}";
  std::ofstream(dir_ / "a_pack" / "scenario.json") << "{}";
  const auto found = discover_scenarios(path());
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NE(found[0].find("a_pack"), std::string::npos);
  EXPECT_NE(found[1].find("b_pack"), std::string::npos);
  EXPECT_TRUE(discover_scenarios(path() + "/nope").empty());
}

// The checked-in zoo must always load — a malformed pack would
// otherwise only surface once ctest re-runs it.
TEST(ScenarioZoo, EveryCheckedInPackLoads) {
  const auto dirs = discover_scenarios(SVCDISC_SCENARIO_DIR);
  EXPECT_GE(dirs.size(), 7u);
  for (const auto& dir : dirs) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(load_scenario(dir, &spec, &error)) << dir << ": " << error;
    EXPECT_FALSE(spec.description.empty()) << dir;
  }
}

}  // namespace
}  // namespace svcdisc::core
