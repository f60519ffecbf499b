// JSON writer/parser and sign-off serialization tests.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/signoff.h"
#include "numeric/constants.h"
#include "report/json.h"
#include "tech/ntrs.h"

namespace dsmt::report {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json::string("hi").dump(-1), "\"hi\"");
  EXPECT_EQ(Json::integer(42).dump(-1), "42");
  EXPECT_EQ(Json::boolean(true).dump(-1), "true");
  EXPECT_EQ(Json::number(1.5).dump(-1), "1.5");
  EXPECT_EQ(Json::null().dump(-1), "null");
}

TEST(Json, NonFinitePolicy) {
  // number() rejects at construction: a bare `nan`/`inf` must never reach a
  // payload. number_or_null() is the opt-in lossy mapping for diagnostics.
  EXPECT_THROW(Json::number(std::nan("")), SolveError);
  EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()),
               SolveError);
  EXPECT_THROW(Json::number(-std::numeric_limits<double>::infinity()),
               SolveError);
  EXPECT_EQ(Json::number_or_null(std::nan("")).dump(-1), "null");
  EXPECT_EQ(Json::number_or_null(std::numeric_limits<double>::infinity())
                .dump(-1),
            "null");
  EXPECT_EQ(Json::number_or_null(2.5).dump(-1), "2.5");
  try {
    Json::number(std::nan(""));
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
  }
}

TEST(JsonParse, ScalarsAndStructure) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("-12").as_integer(), -12);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e-1").as_number(), 0.25);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");
  const Json doc = Json::parse(R"({"xs": [1, 2.5, "three"], "ok": false})");
  ASSERT_TRUE(doc.is_object());
  const Json* xs = doc.find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ(xs->at(0).as_integer(), 1);
  EXPECT_DOUBLE_EQ(xs->at(1).as_number(), 2.5);
  EXPECT_EQ(xs->at(2).as_string(), "three");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, MalformedInputThrows) {
  const std::vector<std::string> bad = {
      "",           "{",           "[1,]",       "{\"a\":}",
      "nul",        "1 2",         "\"unterminated",
      "{\"a\" 1}",  "[1 2]",       "+5",
      "\"bad\\q\"", "\"\\u12\"",   "nan",        "inf",
      std::string("\"ctrl\x01\""),
      // RFC 8259 number grammar violations a lax strtod would accept.
      "01",         "-01",         "00",         "1.",
      ".5",         "1e",          "1e+",        "1.e3",
      "0x10",       "1e5e5",       "--1",        "1.2.3",
  };
  for (const std::string& text : bad)
    EXPECT_THROW(Json::parse(text), SolveError) << "input: " << text;
  // Depth bound: 70 nested arrays exceed the 64-level parser limit.
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += '[';
  EXPECT_THROW(Json::parse(deep), SolveError);
}

TEST(JsonParse, IntegerOverflowFallsThroughToDouble) {
  // In-range literals stay exact integers...
  EXPECT_EQ(Json::parse("9223372036854775807").as_integer(),
            9223372036854775807LL);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_integer(),
            std::numeric_limits<long long>::min());
  // ...while out-of-range ones must NOT silently clamp to LLONG_MAX/MIN
  // (strtoll consumes the whole token and sets errno=ERANGE): they fall
  // through to the double path.
  const Json big = Json::parse("18446744073709551616");  // 2^64
  EXPECT_DOUBLE_EQ(big.as_number(), 18446744073709551616.0);
  EXPECT_THROW(big.as_integer(), SolveError);  // not representable
  EXPECT_DOUBLE_EQ(Json::parse("-92233720368547758080").as_number(),
                   -92233720368547758080.0);
  // Still finite-guarded: a double-overflowing literal is rejected.
  EXPECT_THROW(Json::parse("1e999"), SolveError);
}

TEST(JsonParse, DuplicateObjectKeysRejected) {
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), SolveError);
  EXPECT_THROW(Json::parse(R"({"a": 1, "b": {"c": 1, "c": 2}})"),
               SolveError);
  // Same key in sibling objects is fine.
  const Json doc = Json::parse(R"([{"a": 1}, {"a": 2}])");
  EXPECT_EQ(doc.at(1).find("a")->as_integer(), 2);
  // The builder can't create duplicates either: set() replaces in place.
  Json obj = Json::object();
  obj.set("k", Json::integer(1)).set("other", Json::integer(5));
  obj.set("k", Json::integer(7));
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.find("k")->as_integer(), 7);
  EXPECT_EQ(obj.dump(-1), R"({"k":7,"other":5})");
}

TEST(JsonParse, AdversarialStringRoundTrip) {
  // Escaping round-trip for the strings a hostile request could carry in
  // its id field: parse(dump(x)) must reproduce x byte-for-byte.
  std::string all_controls;
  for (char c = 1; c < 0x20; ++c) all_controls.push_back(c);
  const std::vector<std::string> nasty = {
      "",
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n tab\t return\r backspace\b formfeed\f",
      all_controls,
      std::string("embedded\0nul", 12),
      "unicode \xc3\xa9 \xe2\x82\xac \xf0\x9f\x92\xa1",  // é € U+1F4A1
      "\\u0041 literal, not an escape",
      "{\"looks\": [\"like\", \"json\"]}",
  };
  for (const std::string& s : nasty) {
    const std::string dumped = Json::string(s).dump(-1);
    const Json back = Json::parse(dumped);
    EXPECT_EQ(back.as_string(), s);
    // And once more through an object member, as requests do.
    Json obj = Json::object();
    obj.set("id", Json::string(s));
    const Json reparsed = Json::parse(obj.dump(2));
    const Json* id = reparsed.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->as_string(), s);
  }
  // \uXXXX escapes decode, including surrogate pairs.
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse("\"\\ud83d\\udca1\"").as_string(),
            "\xf0\x9f\x92\xa1");
  EXPECT_THROW(Json::parse("\"\\ud83d\""), SolveError);  // lone surrogate
}

TEST(JsonParse, DumpParseRoundTripTree) {
  Json root = Json::object();
  root.set("name", Json::string("dsmt"))
      .set("count", Json::integer(-7))
      .set("x", Json::number(0.1))
      .set("flag", Json::boolean(false))
      .set("none", Json::null());
  Json arr = Json::array();
  arr.push(Json::number(1e-300)).push(Json::string("s")).push(Json::null());
  root.set("xs", std::move(arr));
  for (const int indent : {-1, 0, 2, 4}) {
    const Json back = Json::parse(root.dump(indent));
    EXPECT_EQ(back.dump(-1), root.dump(-1)) << "indent " << indent;
  }
}

TEST(Json, NumbersPrintExactlyAsSnprintf) {
  // Json::dump formats a double through JsonWriter::number, whose integral
  // shortcut and exact integer path must be invisible: %.10g is the
  // contract. Seeded draws over random bit patterns, scaled mantissas,
  // integers across +-1e10, and the integral shortcut's edges with their
  // neighbours; then exact ties, carries, powers of ten, the exact path's
  // range edges, -0, subnormals and DBL_MAX.
  std::uint64_t state = 0x5eed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const double edges[] = {0.0,    -0.0,   5e-324, DBL_MIN, DBL_MAX, 1e10 - 1,
                          1e10,   -1e10,  -(1e10 - 1), 9007199254740992.0,
                          9.9999999995e9, 0.5, 1e-300, 1e300};
  constexpr int kDraws = 1000000;
  int differing = 0;
  char want[40];
  const auto check = [&](double v) {
    std::snprintf(want, sizeof want, "%.10g", v);
    if (Json::number(v).dump(-1) != want && ++differing <= 3)
      ADD_FAILURE() << "value " << want << " dumps as "
                    << Json::number(v).dump(-1);
  };
  // v and its neighbours one ulp away on either side, each with both signs.
  const auto check_around = [&](double v) {
    for (double w : {std::nextafter(v, 0.0), v, std::nextafter(v, DBL_MAX)}) {
      check(w);
      check(-w);
    }
  };
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t bits = next();
    double v = 0.0;
    switch (bits % 4) {
      case 0:
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isfinite(v)) v = static_cast<double>(bits >> 12);
        break;
      case 1:
        v = static_cast<double>(static_cast<std::int64_t>(next() % 20000000001ULL) -
                                10000000000LL);
        break;
      case 2:
        v = (static_cast<double>(next() >> 11) * 0x1p-53 - 0.5) *
            std::pow(10.0, static_cast<double>(next() % 40) - 20.0);
        break;
      default: {
        const double e = edges[next() % (sizeof edges / sizeof edges[0])];
        v = std::nextafter(e, (next() & 1) ? DBL_MAX : -DBL_MAX);
        if (next() & 1) v = e;
      }
    }
    check(v);
  }

  // Exact ties at the eleventh significant digit, which round half to
  // even: ten-digit integers plus one half, and eleven-digit odd multiples
  // of 5, each scaled by 2^s (halving keeps many of them ties).
  constexpr int kTies = 20000;
  for (int i = 0; i < kTies; ++i) {
    const int s = static_cast<int>(next() % 121) - 60;
    const auto ten = static_cast<double>(1000000000 + next() % 9000000000);
    check(std::ldexp(ten + 0.5, s));
    const auto eleven =
        static_cast<double>((1000000000 + next() % 9000000000) * 10 + 5);
    check(std::ldexp(eleven, s));
  }
  char text[40];
  for (int x = -20; x <= 40; ++x) {
    // Carries (9.9999999995eX rounds up to 1e(X+1)), their near misses,
    // and the powers of ten themselves.
    for (const char* pattern : {"9.9999999995e%d", "9.99999999949999e%d",
                                "1e%d"}) {
      std::snprintf(text, sizeof text, pattern, x);
      check_around(std::strtod(text, nullptr));
    }
  }
  // The exact path covers [2^-43, 2^127); the integral shortcut |v| < 1e10.
  for (double edge : {0x1p-43, 0x1p127, 0x1p53, 1e10, 1e10 - 1, 1e-13})
    check_around(edge);
  // snprintf's own territory: zeros, subnormals and the extremes.
  for (double edge : {0.0, 5e-324, DBL_MIN / 2, DBL_MIN, DBL_MAX})
    check_around(edge);
  EXPECT_EQ(differing, 0);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(-1), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::string(std::string(1, '\x01')).dump(-1), "\"\\u0001\"");
}

TEST(Json, NestedStructure) {
  Json root = Json::object();
  root.set("name", Json::string("dsmt"));
  Json arr = Json::array();
  arr.push(Json::integer(1)).push(Json::integer(2));
  root.set("values", std::move(arr));
  root.set("nested", Json::object().set("ok", Json::boolean(false)));
  EXPECT_EQ(root.dump(-1),
            "{\"name\":\"dsmt\",\"values\":[1,2],\"nested\":{\"ok\":false}}");
  // Indented output contains newlines and preserves order.
  const std::string pretty = root.dump(2);
  EXPECT_NE(pretty.find("\n  \"name\""), std::string::npos);
  EXPECT_LT(pretty.find("name"), pretty.find("values"));
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(-1), "{}");
  EXPECT_EQ(Json::array().dump(-1), "[]");
}

TEST(Json, KindMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("x", Json::integer(1)), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(Json::integer(1)), std::logic_error);
}

TEST(Json, SignoffReportSerializes) {
  core::SignoffOptions opts;
  opts.j0 = MA_per_cm2(0.6);
  opts.engine.sim.steps_per_period = 1200;
  opts.engine.sim.line_segments = 12;
  const auto report = core::run_signoff(tech::make_ntrs_250nm_cu(), opts);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"technology\": \"NTRS-250nm-Cu\""), std::string::npos);
  EXPECT_NE(json.find("\"design_rules\""), std::string::npos);
  EXPECT_NE(json.find("\"global_checks\""), std::string::npos);
  EXPECT_NE(json.find("\"esd\""), std::string::npos);
  EXPECT_NE(json.find("\"all_global_layers_pass\": true"), std::string::npos);
  // Rough structural sanity: one design-rule object per table cell.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"jpeak_MA_cm2\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, report.design_rules.size());
}

}  // namespace
}  // namespace dsmt::report
