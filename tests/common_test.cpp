// Unit tests for the common module: RNG, strings, CSV, JSON, tables, errors.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace pwx {
namespace {

// ---------------------------------------------------------------- error

TEST(Error, RequireThrowsInvalidArgumentWithMessage) {
  try {
    PWX_REQUIRE(1 == 2, "got ", 42);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("got 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckThrowsPwxError) {
  EXPECT_THROW(PWX_CHECK(false, "boom"), Error);
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0;
  double sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalMeanMatchesRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.lognormal_mean_cv(5.0, 0.2);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, LognormalZeroCvIsExact) {
  // The mean comes back and no normal is drawn: the generator's next normal
  // is a fresh same-seed generator's first.
  Rng rng(13);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(3.5, 0.0), 3.5);
  EXPECT_EQ(rng.normal(), Rng(13).normal());
  Rng family_rng(13);
  EXPECT_DOUBLE_EQ(LognormalCv(0.0)(3.5, family_rng), 3.5);
  EXPECT_EQ(family_rng.normal(), Rng(13).normal());
}

TEST(Rng, LognormalIsAlwaysPositive) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.lognormal_mean_cv(1.0, 0.5), 0.0);
  }
}

TEST(Rng, LognormalRejectsBadArguments) {
  // A NaN is the one mean not > 0 that the simulator's jitter can pass on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(17);
  EXPECT_THROW(rng.lognormal_mean_cv(0.0, 0.1), InvalidArgument);
  EXPECT_THROW(rng.lognormal_mean_cv(nan, 0.1), InvalidArgument);
  EXPECT_THROW(rng.lognormal_mean_cv(nan, 0.0), InvalidArgument);
  EXPECT_THROW(rng.lognormal_mean_cv(1.0, -0.1), InvalidArgument);
  // The family checks its cv once and every draw's mean.
  EXPECT_THROW(LognormalCv(-0.1), InvalidArgument);
  const LognormalCv family(0.1);
  EXPECT_THROW(family(0.0, rng), InvalidArgument);
  EXPECT_THROW(family(nan, rng), InvalidArgument);
  EXPECT_GT(family(1.0, rng), 0.0);
  EXPECT_THROW(family(nan, rng), InvalidArgument);
  EXPECT_THROW(LognormalCv(0.0)(nan, rng), InvalidArgument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(21);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationOfZeroIsEmpty) {
  Rng rng(21);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, SplitMix64KnownVector) {
  // Reference value from the splitmix64 reference implementation with
  // state = 0: first output is 0xE220A8397B1DCDAF.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

// ---------------------------------------------------------------- strings

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("PAPI_TOT_CYC", "PAPI_"));
  EXPECT_FALSE(starts_with("TOT_CYC", "PAPI_"));
  EXPECT_FALSE(starts_with("PA", "PAPI_"));
}

TEST(Strings, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

// ---------------------------------------------------------------- csv

TEST(Csv, PlainFieldsUnquoted) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, FieldsWithSeparatorAreQuoted) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a,b", "c"});
  EXPECT_EQ(os.str(), "\"a,b\",c\n");
}

TEST(Csv, QuotesAreDoubled) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\"", ','), "\"say \"\"hi\"\"\"");
}

TEST(Csv, NewlinesForceQuoting) {
  EXPECT_EQ(CsvWriter::escape("a\nb", ','), "\"a\nb\"");
}

// ---------------------------------------------------------------- json

TEST(Json, RoundTripScalars) {
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, RoundTripNestedDocument) {
  const std::string doc = R"({"a": [1, 2.5, {"b": "x"}], "c": null, "d": true})";
  const Json parsed = Json::parse(doc);
  const Json reparsed = Json::parse(parsed.dump());
  EXPECT_EQ(reparsed.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(reparsed.at("a").as_array()[2].at("b").as_string(), "x");
  EXPECT_TRUE(reparsed.at("c").is_null());
  EXPECT_TRUE(reparsed.at("d").as_bool());
}

TEST(Json, CompactDumpHasNoNewlines) {
  Json j;
  j["x"] = 1;
  j["y"] = "z";
  EXPECT_EQ(j.dump(-1).find('\n'), std::string::npos);
}

TEST(Json, ObjectKeysAreSorted) {
  Json j;
  j["zeta"] = 1;
  j["alpha"] = 2;
  const std::string out = j.dump(-1);
  EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  const Json j = Json::parse("\"\\u00e9\"");  // é
  EXPECT_EQ(j.as_string(), "\xc3\xa9");
}

TEST(Json, ParseErrorsThrowIoError) {
  EXPECT_THROW(Json::parse("{"), IoError);
  EXPECT_THROW(Json::parse("[1,]2"), IoError);
  EXPECT_THROW(Json::parse("tru"), IoError);
  EXPECT_THROW(Json::parse("\"unterminated"), IoError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), IoError);
  EXPECT_THROW(Json::parse("1e999"), IoError);  // overflows to infinity
  // Nesting is bounded before the recursive descent reaches the stack
  // limit: 30,000 open brackets are a typed error, not a crash.
  EXPECT_THROW(Json::parse(std::string(30000, '[')), IoError);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(Json::kMaxDepth)));
  try {
    Json::parse(nested(Json::kMaxDepth + 1));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 64"), std::string::npos)
        << e.what();
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), Error);
  EXPECT_THROW(j.as_number(), Error);
  EXPECT_THROW(j.at("x"), Error);
}

TEST(Json, FindReturnsNullForMissingKey) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_EQ(j.find("b"), nullptr);
  EXPECT_NE(j.find("a"), nullptr);
}

TEST(Json, NumbersSurviveRoundTripExactly) {
  for (double v : {0.1, 1e-300, 1e300, -123456.789, 3.141592653589793}) {
    Json j(v);
    EXPECT_EQ(Json::parse(j.dump()).as_number(), v) << v;
  }
}

TEST(Json, NonFiniteNumbersRejectedOnDump) {
  Json j(std::nan(""));
  EXPECT_THROW(j.dump(), Error);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // All lines equal width up to trailing spaces being present.
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), InvalidArgument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), InvalidArgument);
}

// ---------------------------------------------------------------- units

TEST(Units, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(units::mhz_to_ghz(2400.0), 2.4);
  EXPECT_DOUBLE_EQ(units::ghz_to_hz(1.2), 1.2e9);
  EXPECT_DOUBLE_EQ(units::hz_to_ghz(2.6e9), 2.6);
}

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(units::ns_to_s(1500000000ull), 1.5);
  EXPECT_EQ(units::s_to_ns(2.5), 2500000000ull);
}

// ---------------------------------------------------------------- log

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  PWX_LOG_DEBUG("this must not crash even when filtered");
  set_log_level(before);
}

// Capture log output into a string, restoring global state on destruction.
class LogCapture {
public:
  LogCapture() : level_(log_level()), format_(log_format()) {
    set_log_stream(&stream_);
  }
  ~LogCapture() {
    set_log_stream(nullptr);
    set_log_format(format_);
    set_log_level(level_);
  }
  std::string text() const { return stream_.str(); }

private:
  std::ostringstream stream_;
  LogLevel level_;
  LogFormat format_;
};

TEST(Log, MessagesBelowThresholdAreDiscarded) {
  LogCapture capture;
  set_log_level(LogLevel::Warn);
  log_message(LogLevel::Debug, "dropped");
  log_message(LogLevel::Info, "dropped too");
  log_message(LogLevel::Warn, "kept");
  log_message(LogLevel::Error, "kept too");
  EXPECT_EQ(capture.text().find("dropped"), std::string::npos);
  EXPECT_NE(capture.text().find("kept"), std::string::npos);
  EXPECT_NE(capture.text().find("kept too"), std::string::npos);
}

TEST(Log, TextModeAppendsFields) {
  LogCapture capture;
  set_log_level(LogLevel::Info);
  set_log_format(LogFormat::Text);
  log_message(LogLevel::Info, "campaign done",
              {{"rows", "42"}, {"verdict", "clean"}});
  EXPECT_NE(capture.text().find("[pwx INFO ]"), std::string::npos);
  EXPECT_NE(capture.text().find("campaign done"), std::string::npos);
  EXPECT_NE(capture.text().find("rows=42"), std::string::npos);
  EXPECT_NE(capture.text().find("verdict=clean"), std::string::npos);
}

TEST(Log, JsonModeEmitsOneParseableObjectPerLine) {
  LogCapture capture;
  set_log_level(LogLevel::Info);
  set_log_format(LogFormat::Json);
  log_message(LogLevel::Info, "flush \"quoted\"", {{"seq", "3"}});
  log_message(LogLevel::Warn, "second");

  std::istringstream lines(capture.text());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const Json first = Json::parse(line);
  EXPECT_EQ(first.at("level").as_string(), "info");
  EXPECT_EQ(first.at("msg").as_string(), "flush \"quoted\"");
  EXPECT_EQ(first.at("seq").as_string(), "3");
  EXPECT_FALSE(first.at("ts").as_string().empty());
  EXPECT_FALSE(first.at("thread").as_string().empty());
  // ISO 8601 UTC with millisecond precision: 2026-01-02T03:04:05.678Z.
  const std::string& ts = first.at("ts").as_string();
  EXPECT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("level").as_string(), "warn");
  EXPECT_FALSE(std::getline(lines, line));  // exactly two lines
}

}  // namespace
}  // namespace pwx
