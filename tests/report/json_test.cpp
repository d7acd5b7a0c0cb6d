// Tests for the unified report::Json writer plus schema golden checks:
// every machine-readable document paxsim emits (run, predict, check,
// trace) must be valid JSON carrying the {"schema_version", "kind"}
// envelope and its advertised top-level fields.
#include "report/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/engine.hpp"
#include "harness/report.hpp"

namespace paxsim {
namespace {

using report::Json;
using report::validate_json;

std::string doc(void (*build)(Json&)) {
  std::ostringstream os;
  Json j(os);
  build(j);
  return os.str();
}

TEST(JsonWriterTest, DocumentEnvelope) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.finish();
  });
  EXPECT_EQ(text, "{\"schema_version\":1,\"kind\":\"demo\"}\n");
  EXPECT_TRUE(validate_json(text));
}

TEST(JsonWriterTest, EscapesStrings) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.field("s", "a\"b\\c\nd\te");
    j.finish();
  });
  std::string error;
  EXPECT_TRUE(validate_json(text, &error)) << error;
  EXPECT_NE(text.find("a\\\"b\\\\c\\nd\\te"), std::string::npos) << text;
}

TEST(JsonWriterTest, NestedStructureAndAutoCommas) {
  std::ostringstream os;
  Json j(os);
  j.begin_document("demo");
  j.key("list").array().value(1).value(2).object();
  j.field("k", true);
  j.end().end();
  j.field("tail", 3);
  EXPECT_GT(j.depth(), 0u);
  j.finish();
  EXPECT_EQ(j.depth(), 0u);
  const std::string text = os.str();
  std::string error;
  EXPECT_TRUE(validate_json(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"list\":[1,2,{\"k\":true}],\"tail\":3"),
            std::string::npos)
      << text;
}

TEST(JsonWriterTest, NonFiniteNumbersRenderAsNull) {
  const std::string text = doc([](Json& j) {
    j.begin_document("demo");
    j.field("nan", std::numeric_limits<double>::quiet_NaN());
    j.field("inf", std::numeric_limits<double>::infinity());
    j.finish();
  });
  std::string error;
  EXPECT_TRUE(validate_json(text, &error)) << error;
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos) << text;
}

TEST(ValidateJsonTest, AcceptsWellFormedValues) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\\"b\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}", "  [1, 2]  \n"}) {
    std::string error;
    EXPECT_TRUE(validate_json(ok, &error)) << ok << ": " << error;
  }
}

TEST(ValidateJsonTest, RejectsMalformedValues) {
  for (const char* bad : {"", "{", "[1,2", "{\"a\":}", "{a:1}", "{} {}",
                          "[1 2]", "{\"a\" 1}", "\"unterminated", "+1",
                          "1."}) {
    EXPECT_FALSE(validate_json(bad)) << bad;
  }
}

// ---- schema goldens: the documents the harness actually emits --------------

harness::ExperimentEngine& engine() {
  static harness::ExperimentEngine e;
  return e;
}

harness::RunOptions small_options() {
  harness::RunOptions opt;
  opt.cls = npb::ProblemClass::kClassS;
  opt.trials = 1;
  return opt;
}

void expect_document(const std::string& text, const std::string& kind,
                     const std::vector<std::string>& keys) {
  std::string error;
  ASSERT_TRUE(validate_json(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"kind\":\"" + kind + "\""), std::string::npos) << text;
  for (const std::string& k : keys) {
    EXPECT_NE(text.find("\"" + k + "\":"), std::string::npos)
        << kind << " document lacks key " << k;
  }
}

TEST(ReportSchemaTest, RunDocument) {
  const harness::RunOptions opt = small_options();
  const harness::RunResult r = engine().serial(npb::Benchmark::kCG, opt,
                                               opt.trial_seed(0));
  std::ostringstream os;
  harness::print_run_json(os, "CG", "Serial", r);
  expect_document(os.str(), "run",
                  {"bench", "config", "wall_cycles", "verified", "metrics",
                   "counters"});
}

TEST(ReportSchemaTest, PredictDocument) {
  const harness::RunOptions opt = small_options();
  const harness::StudyConfig* cfg = harness::find_config("HT off -4-2");
  ASSERT_NE(cfg, nullptr);
  const harness::PredictionResult p =
      engine().predict(npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(0));
  std::ostringstream os;
  harness::print_prediction_json(os, "CG", std::string(cfg->name),
                                 p.prediction);
  expect_document(os.str(), "predict",
                  {"bench", "config", "wall_cycles", "speedup", "metrics"});
}

TEST(ReportSchemaTest, CheckDocument) {
  harness::RunOptions opt = small_options();
  opt.check_mode = sim::CheckMode::kFull;
  sim::Machine machine(opt.machine_params());
  const harness::RunResult r = harness::run_single(
      machine, npb::Benchmark::kEP, harness::serial_config(), opt,
      opt.trial_seed(0));
  std::ostringstream os;
  harness::print_check_report_json(os, r.check);
  expect_document(os.str(), "check",
                  {"mode", "clean", "races", "violations"});
}

TEST(ReportSchemaTest, TraceDocument) {
  harness::RunOptions opt = small_options();
  opt.trace_mode = sim::TraceMode::kStacks;
  const harness::StudyConfig* cfg = harness::find_config("HT on -4-1");
  ASSERT_NE(cfg, nullptr);
  const harness::TraceResult tr =
      engine().trace(npb::Benchmark::kCG, *cfg, opt, opt.trial_seed(0));
  std::ostringstream os;
  harness::print_trace_report_json(os, "CG", std::string(cfg->name), tr.trace);
  expect_document(os.str(), "trace",
                  {"bench", "config", "wall_cycles", "contexts", "regions"});
}

}  // namespace
}  // namespace paxsim
