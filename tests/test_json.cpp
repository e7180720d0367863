// snap/util/json: escape-correct emit, recursive-descent parse, and the
// round-trip / malformed-input contracts the bench reports and the graph
// service rely on.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "snap/util/json.hpp"

namespace {

using snap::json::Value;

Value parse_ok(const std::string& text) {
  Value v;
  std::string err;
  EXPECT_TRUE(snap::json::parse(text, &v, &err)) << text << " -> " << err;
  return v;
}

std::string parse_fail(const std::string& text) {
  Value v;
  std::string err;
  EXPECT_FALSE(snap::json::parse(text, &v, &err)) << text;
  EXPECT_FALSE(err.empty()) << text;
  return err;
}

TEST(JsonValue, ScalarsDump) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(0).dump(), "0");
  EXPECT_EQ(Value(-17).dump(), "-17");
  EXPECT_EQ(Value(3.5).dump(), "3.5");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
  EXPECT_EQ(Value(std::int64_t{1} << 40).dump(), "1099511627776");
}

TEST(JsonValue, ObjectInsertionOrderAndReplace) {
  Value o = Value::object();
  o.set("b", 1);
  o.set("a", 2);
  o.set("b", 3);  // replaced in place, position kept
  EXPECT_EQ(o.dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(o.get("a").as_int64(), 2);
  EXPECT_EQ(o.get("missing").as_int64(-1), -1);
  EXPECT_TRUE(o.get("missing").is_null());
  EXPECT_FALSE(o.has("missing"));
}

TEST(JsonValue, NestedChainedGet) {
  Value inner = Value::object();
  inner.set("v", 42);
  Value outer = Value::object();
  outer.set("in", inner);
  EXPECT_EQ(outer.get("in").get("v").as_int64(), 42);
  EXPECT_EQ(outer.get("no").get("v").as_int64(7), 7);
}

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(Value("a\"b\\c").dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Value("\n\t\r\b\f").dump(), "\"\\n\\t\\r\\b\\f\"");
  EXPECT_EQ(Value(std::string("\x01\x1f")).dump(), "\"\\u0001\\u001f\"");
  // Multi-byte UTF-8 passes through verbatim.
  EXPECT_EQ(Value("caf\xc3\xa9").dump(), "\"caf\xc3\xa9\"");
}

TEST(JsonRoundTrip, EscapedStringsSurvive) {
  const std::string nasty = "quote:\" backslash:\\ newline:\n tab:\t nul-ish:\x01";
  const Value v(nasty);
  const Value back = parse_ok(v.dump());
  EXPECT_EQ(back.as_string(), nasty);
}

TEST(JsonRoundTrip, NumbersSurviveExactly) {
  for (const double d : {0.0, 1.0, -1.0, 0.1, 1e-9, 3.141592653589793,
                         1e300, -2.5e-300, 9007199254740991.0}) {
    const Value back = parse_ok(Value(d).dump());
    EXPECT_EQ(back.as_double(), d) << Value(d).dump();
  }
}

TEST(JsonRoundTrip, NestedDocument) {
  Value doc = Value::object();
  doc.set("name", "bench_service");
  doc.set("epoch", 12);
  Value arr = Value::array();
  for (int i = 0; i < 3; ++i) {
    Value rec = Value::object();
    rec.set("u", i);
    rec.set("v", i + 1);
    rec.set("op", i % 2 == 0 ? "insert" : "delete");
    arr.push_back(rec);
  }
  doc.set("updates", arr);
  doc.set("flag", true);
  doc.set("nothing", Value());

  const std::string text = doc.dump();
  const Value back = parse_ok(text);
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.dump(), text);  // byte-stable re-serialization
  EXPECT_EQ(back.get("updates").size(), 3u);
  EXPECT_EQ(back.get("updates")[2].get("u").as_int64(), 2);
}

TEST(JsonParse, WhitespaceAndLiterals) {
  EXPECT_TRUE(parse_ok(" \t\r\n null \n").is_null());
  EXPECT_TRUE(parse_ok("[ ]").is_array());
  EXPECT_TRUE(parse_ok("{ }").is_object());
  const Value v = parse_ok("[1, -2.5e3, true, null, \"x\"]");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v[1].as_double(), -2500.0);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(parse_ok("\"\\u20ac\"").as_string(), "\xe2\x82\xac");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, MalformedInputsRejectWithPosition) {
  for (const char* bad :
       {"", "{", "[", "[1,", "{\"a\":}", "{\"a\" 1}", "{a:1}", "tru",
        "nulll", "[1 2]", "\"unterminated", "\"bad \\q escape\"", "01",
        "1.", "1e", "-", "+1", "NaN", "Infinity", "[1]]", "{}{}",
        "\"\\ud83d\"", "\"\\udc00\"", "\"\\u12g4\"", "{\"a\":1,}", "[1,]"}) {
    const std::string err = parse_fail(bad);
    EXPECT_NE(err.find("byte "), std::string::npos) << bad << " -> " << err;
  }
}

TEST(JsonParse, RawControlCharacterInStringRejected) {
  parse_fail(std::string("\"a\nb\""));
}

TEST(JsonParse, DepthLimitRejectsStackAttack) {
  std::string deep(5000, '[');
  deep += std::string(5000, ']');
  parse_fail(deep);
  // ...but reasonable nesting is fine.
  std::string ok(64, '[');
  ok += "1";
  ok += std::string(64, ']');
  parse_ok(ok);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  const Value v = parse_ok("{\"a\":1,\"a\":2}");
  EXPECT_EQ(v.get("a").as_int64(), 2);
  EXPECT_EQ(v.size(), 1u);
}

TEST(JsonNumbers, AsInt64IsExactOrDefault) {
  EXPECT_EQ(parse_ok("42").as_int64(-1), 42);
  EXPECT_EQ(parse_ok("-7").as_int64(-1), -7);
  EXPECT_EQ(parse_ok("4.0").as_int64(-1), 4);
  EXPECT_EQ(parse_ok("9007199254740992").as_int64(-1),
            std::int64_t{1} << 53);
  EXPECT_EQ(parse_ok("-9007199254740992").as_int64(-1),
            -(std::int64_t{1} << 53));
  // Fractional, beyond the exact-double window, or not finite: no value.
  EXPECT_EQ(parse_ok("1.5").as_int64(-1), -1);
  EXPECT_EQ(parse_ok("-0.25").as_int64(-1), -1);
  EXPECT_EQ(parse_ok("1e300").as_int64(-1), -1);
  EXPECT_EQ(parse_ok("-1e300").as_int64(-1), -1);
  EXPECT_EQ(parse_ok("18014398509481984").as_int64(-1), -1);  // 2^54
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).as_int64(-1), -1);
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).as_int64(-1), -1);
  EXPECT_EQ(Value("3").as_int64(-1), -1);
}

TEST(JsonNumbers, NonFiniteEmitsZero) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "0");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "0");
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

TEST(JsonNumbers, EdgeCasesReadAsStrtodDoes) {
  // Overflow, underflow, the smallest subnormal, negative zero, 2^53 + 1
  // (rounds to even) and a mantissa longer than a double holds: each reads
  // as the double strtod gives the same text, bit for bit.
  const std::string kForty = "1234567890123456789012345678901234567890";
  for (const std::string& text :
       {std::string("1e400"), std::string("-1e400"), std::string("1e-400"),
        std::string("-1e-400"), std::string("4.9e-324"), std::string("-0"),
        std::string("9007199254740993"), kForty, "0." + kForty + "e-3"})
    EXPECT_EQ(bits(parse_ok(text).as_double()),
              bits(std::strtod(text.c_str(), nullptr)))
        << text;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_ok("1e400").as_double(), kInf);
  EXPECT_EQ(parse_ok("-1e400").as_double(), -kInf);
  EXPECT_EQ(bits(parse_ok("1e-400").as_double()), bits(0.0));
  EXPECT_EQ(parse_ok("4.9e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(parse_ok("-0").as_double()));
  EXPECT_EQ(parse_ok("9007199254740993").as_double(), 9007199254740992.0);
  EXPECT_EQ(parse_ok(kForty).as_double(), 1.2345678901234568e39);

  // ...and reads back out as integers and text the same way.
  struct Case {
    std::string text;
    std::int64_t as_int;  // as_int64(-1)
    const char* dump;
  };
  for (const Case& c : {Case{"1e400", -1, "0"}, Case{"-1e400", -1, "0"},
                        Case{"1e-400", 0, "0"},
                        Case{"4.9e-324", -1, "4.94065645841247e-324"},
                        Case{"-0", 0, "-0"},
                        Case{"9007199254740993", std::int64_t{1} << 53,
                             "9007199254740992"},
                        Case{kForty, -1, "1.2345678901234568e+39"}}) {
    const Value v = parse_ok(c.text);
    EXPECT_EQ(v.as_int64(-1), c.as_int) << c.text;
    EXPECT_EQ(v.dump(), c.dump) << c.text;
  }
}

TEST(JsonParse, StringRunsAndEscapes) {
  // Escapes at either end of a plain run, and between runs.
  EXPECT_EQ(parse_ok("\"\\tabc\"").as_string(), "\tabc");
  EXPECT_EQ(parse_ok("\"abc\\t\"").as_string(), "abc\t");
  EXPECT_EQ(parse_ok("\"\\t\"").as_string(), "\t");
  EXPECT_EQ(parse_ok("\"a\\\"b\\\"c\"").as_string(), "a\"b\"c");
  EXPECT_EQ(parse_ok("\"\\u0041bc\\\\\"").as_string(), "Abc\\");
  EXPECT_EQ(parse_ok("{\"a\\u0062\":\"x\",\"ab\":\"y\"}").dump(),
            "{\"ab\":\"y\"}");
  // Errors keep their byte offsets.
  struct Case {
    std::string text;
    const char* error;
  };
  for (const Case& c :
       {Case{"\"abc\\", "byte 5: truncated escape"},
        Case{"\"\\", "byte 2: truncated escape"},
        Case{"\"abc\\\"", "byte 6: unterminated string"},
        Case{"\"ab\\n", "byte 5: unterminated string"},
        Case{"\"", "byte 1: unterminated string"},
        Case{"\"ab\ncd\"", "byte 4: raw control character in string"},
        Case{"\"\\tab\x01\"", "byte 6: raw control character in string"},
        Case{"{\"a\\u0062\":1,\"a\nb\":2}",
             "byte 16: raw control character in string"},
        Case{"\"ab\\q\"", "byte 5: invalid escape character"},
        Case{"[\"x\",\"y\\z\"]", "byte 9: invalid escape character"},
        Case{"\"ab\\u00\"", "byte 5: truncated \\u escape"}})
    EXPECT_EQ(parse_fail(c.text), c.error) << c.text;
}

/// Records every event as one token: n, b:1, #:2.5, s:text, k:key, [ ] { }.
class RecordingSink final : public snap::json::Sink {
 public:
  void null() override { events.emplace_back("n"); }
  void boolean(bool b) override { events.push_back(b ? "b:1" : "b:0"); }
  void number(double d) override {
    events.push_back("#:" + Value(d).dump());
  }
  void string(std::string_view s) override {
    events.push_back("s:" + std::string(s));
  }
  void key(std::string_view k) override {
    events.push_back("k:" + std::string(k));
  }
  void begin_array() override { events.emplace_back("["); }
  void end_array() override { events.emplace_back("]"); }
  void begin_object() override { events.emplace_back("{"); }
  void end_object() override { events.emplace_back("}"); }

  std::vector<std::string> events;
};

TEST(JsonSink, EventsArriveInDocumentOrder) {
  RecordingSink sink;
  std::string err;
  ASSERT_TRUE(snap::json::parse(
      R"({"a":[1,{"b\n":null,"c":[]},"x\u0041"],"d":{"e":true,"f":{}},"g":-2.5})",
      sink, &err))
      << err;
  const std::vector<std::string> want = {
      "{",                                               //
      "k:a", "[", "#:1",                                 //
      "{", "k:b\n", "n", "k:c", "[", "]", "}",           //
      "s:xA", "]",                                       //
      "k:d", "{", "k:e", "b:1", "k:f", "{", "}", "}",    //
      "k:g", "#:-2.5",                                   //
      "}"};
  EXPECT_EQ(sink.events, want);

  // Malformed input: the events stop where the error is.
  RecordingSink partial;
  EXPECT_FALSE(snap::json::parse("[1,{\"k\":tru}]", partial, &err));
  EXPECT_EQ(err, "byte 8: invalid literal");
  EXPECT_EQ(partial.events,
            (std::vector<std::string>{"[", "#:1", "{", "k:k"}));
}

/// Keeps the last number event.
class LastNumber final : public snap::json::Sink {
 public:
  void null() override {}
  void boolean(bool) override {}
  void number(double d) override { value = d; }
  void string(std::string_view) override {}
  void key(std::string_view) override {}
  void begin_array() override {}
  void end_array() override {}
  void begin_object() override {}
  void end_object() override {}

  double value = 1.5;
};

TEST(JsonNumbers, IntegersReadBitForBitAsFromChars) {
  // Plain integers of up to 15 digits take an integer path; longer ones,
  // and the boundaries around 10^15 and 2^53, must read as from_chars
  // reads them, sign and -0 included.
  std::vector<std::string> spans = {"0",
                                    "999999999999999",
                                    "1000000000000000",
                                    "9007199254740991",
                                    "9007199254740992",
                                    "9007199254740993"};
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int digits = 1; digits <= 17; ++digits) {
    for (int k = 0; k < 64; ++k) {
      std::string span;
      for (int i = 0; i < digits; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto d = static_cast<int>((state >> 33) % 10);
        span += static_cast<char>('0' + (i == 0 && digits > 1 ? 1 + d % 9 : d));
      }
      spans.push_back(span);
    }
  }
  for (const std::string& span : spans) {
    for (const std::string& text : {span, "-" + span}) {
      LastNumber sink;
      std::string err;
      ASSERT_TRUE(snap::json::parse(text, sink, &err)) << text << err;
      double want = 0.0;
      std::from_chars(text.data(), text.data() + text.size(), want);
      EXPECT_EQ(bits(sink.value), bits(want)) << text;
    }
  }
  LastNumber zero;
  ASSERT_TRUE(snap::json::parse("-0", zero));
  EXPECT_TRUE(std::signbit(zero.value));
}

TEST(JsonSink, ElementRunsMatchTheWholeParse) {
  const std::string text =
      R"({"a":[ 1 , {"b":[2,{"c":"]"}]} ,"x,{", [] ,null ]})";
  RecordingSink whole;
  ASSERT_TRUE(snap::json::parse(text, whole));
  // The array's own events and the root's are not part of a run.
  const std::vector<std::string> elements(whole.events.begin() + 3,
                                          whole.events.end() - 2);
  const std::size_t open = text.find('[') + 1;
  const std::size_t second = text.find('{', open);
  const std::size_t third = text.find("\"x");
  const std::size_t close = text.rfind(']');
  constexpr std::size_t kNoLimit = std::string_view::npos;

  // Runs cut on element starts; a limit inside an element ends the run
  // after it; and the last run stops on the ']'.
  for (const std::size_t cut : {second, second + 1, third - 1}) {
    RecordingSink runs;
    std::size_t stop = 0;
    std::string err;
    ASSERT_TRUE(snap::json::parse_elements(text, open, 2, cut, runs, &stop,
                                           &err))
        << err;
    const std::size_t next = cut == second ? second : third;
    EXPECT_EQ(stop, next);
    ASSERT_TRUE(snap::json::parse_elements(text, next, 2, kNoLimit, runs,
                                           &stop, &err))
        << err;
    EXPECT_EQ(stop, close);
    EXPECT_EQ(runs.events, elements) << cut;
  }

  // An empty array stops on its ']' at once.
  RecordingSink none;
  std::size_t stop = 0;
  ASSERT_TRUE(snap::json::parse_elements("[ \n]", 1, 1, kNoLimit, none, &stop));
  EXPECT_EQ(stop, 3u);
  EXPECT_TRUE(none.events.empty());

  // Malformed elements fail with the whole parse's message, and nesting
  // counts from the given depth.
  for (const std::string& bad :
       {std::string("[1,2,}"), std::string("[1 2]"), std::string("[1,"),
        std::string("[{\"a\":tru}]"), std::string(129, '[') + "]",
        std::string(130, '[') + "]"}) {
    RecordingSink sink;
    std::string want;
    std::string got;
    const bool whole_ok = snap::json::parse(bad, sink, &want);
    const bool run_ok =
        snap::json::parse_elements(bad, 1, 1, kNoLimit, sink, &stop, &got);
    EXPECT_FALSE(whole_ok) << bad;
    EXPECT_FALSE(run_ok) << bad;
    EXPECT_EQ(got, want) << bad;
  }
}

}  // namespace
