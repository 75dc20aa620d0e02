#include "util/json.h"

#include <gtest/gtest.h>

#include <thread>

#include "util/rng.h"

namespace xmem::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegersPreservedExactly) {
  const std::int64_t big = 9007199254740993LL;  // not representable in double
  EXPECT_EQ(Json::parse(std::to_string(big)).as_int(), big);
}

TEST(JsonParse, NestedStructures) {
  const Json doc = Json::parse(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a")[0].as_int(), 1);
  EXPECT_TRUE(doc.at("a")[2].at("b").is_null());
  EXPECT_TRUE(doc.at("c").at("d").as_bool());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");       // é
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse(" \n\t{ \"a\" : 1 } \r\n").at("a").as_int(), 1);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonParseError);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), JsonParseError);
}

/// `depth` arrays nested in one another around `inner`.
std::string nested_arrays(int depth, const std::string& inner = "") {
  return std::string(static_cast<std::size_t>(depth), '[') + inner +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParse, NestingStopsAtTheBoundWithTheOffset) {
  const int limit = JsonCursor::kMaxDepth;
  EXPECT_NO_THROW(Json::parse(nested_arrays(limit)));
  EXPECT_NO_THROW(Json::parse(nested_arrays(limit - 1, "{\"a\":1}")));
  // The bracket that opens level 513 is the one named.
  try {
    Json::parse(nested_arrays(limit + 1));
    FAIL() << "nesting past the bound parsed";
  } catch (const JsonParseError& error) {
    EXPECT_STREQ(error.what(), "nesting deeper than 512 levels at offset 512");
    EXPECT_EQ(error.offset(), 512u);
  }
  // Objects count the same as arrays; depth is per path, not per document.
  std::string objects;
  for (int i = 0; i <= limit; ++i) objects += "{\"k\":";
  EXPECT_THROW(Json::parse(objects), JsonParseError);
  const std::string siblings =
      "[" + nested_arrays(limit - 1) + "," + nested_arrays(limit - 1) + "]";
  EXPECT_NO_THROW(Json::parse(siblings));
}

TEST(JsonParse, DeepInputFailsOnAThreadStack) {
  // 100,000 levels of '[' are an ordinary parse error for the DOM parser
  // and for skip_value alike: neither recurses past the bound, so a small
  // thread stack is enough.
  const std::string deep(100000, '[');
  std::string parse_message, skip_message;
  std::thread reader([&] {
    try {
      Json::parse(deep);
    } catch (const JsonParseError& error) {
      parse_message = error.what();
    }
    try {
      JsonCursor cursor(deep);
      cursor.skip_value();
    } catch (const JsonParseError& error) {
      skip_message = error.what();
    }
  });
  reader.join();
  EXPECT_EQ(parse_message, "nesting deeper than 512 levels at offset 512");
  EXPECT_EQ(skip_message, parse_message);
}

TEST(JsonDump, CompactRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"s"],"b":false,"n":null})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
}

TEST(JsonDump, EscapesControlCharacters) {
  Json v(std::string("a\x01" "b\n"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\\n\"");
  EXPECT_EQ(Json::parse(v.dump()).as_string(), "a\x01" "b\n");
}

TEST(JsonDump, DoublesReparseAsDoubles) {
  Json v(2.0);
  const Json reparsed = Json::parse(v.dump());
  EXPECT_TRUE(reparsed.is_double());
  EXPECT_DOUBLE_EQ(reparsed.as_double(), 2.0);
}

TEST(JsonDump, PrettyPrintIsReparsable) {
  const Json doc = Json::parse(R"({"a":[1,2],"b":{"c":"d"}})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), doc);
}

TEST(JsonObject, AccessHelpers) {
  Json obj = Json::object();
  obj["x"] = Json(5);
  obj["s"] = Json("v");
  EXPECT_TRUE(obj.contains("x"));
  EXPECT_FALSE(obj.contains("y"));
  EXPECT_EQ(obj.get_int_or("x", -1), 5);
  EXPECT_EQ(obj.get_int_or("y", -1), -1);
  EXPECT_EQ(obj.get_string_or("s", ""), "v");
  EXPECT_EQ(obj.get_string_or("x", "fallback"), "fallback");  // wrong type
  EXPECT_THROW(obj.at("missing"), std::out_of_range);
}

TEST(JsonArray, PushBackOnNullPromotes) {
  Json arr;
  arr.push_back(Json(1));
  arr.push_back(Json("two"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[1].as_string(), "two");
}

// Property: randomly generated documents survive dump -> parse unchanged.
Json random_json(Rng& rng, int depth) {
  const std::uint64_t kind = rng.next_below(depth > 2 ? 4 : 6);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.next_bool(0.5));
    case 2: return Json(static_cast<std::int64_t>(rng.next_u64() >> 16));
    case 3: {
      std::string s;
      const auto len = rng.next_below(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng.next_below(90)));
      }
      return Json(std::move(s));
    }
    case 4: {
      Json arr = Json::array();
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        arr.push_back(random_json(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth + 1);
      }
      return obj;
    }
  }
}

class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Json doc = random_json(rng, 0);
    EXPECT_EQ(Json::parse(doc.dump()), doc);
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xmem::util
