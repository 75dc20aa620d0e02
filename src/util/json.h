// Minimal, dependency-free JSON value / parser / writer.
//
// Two layers share one grammar. JsonCursor is a pull lexer over a document
// (whitespace, strings, numbers, literals, object and array structure);
// Json::parse builds a DOM on it, and streaming readers such as the
// Chrome-trace codec (trace/trace.cpp) walk it directly, so every reader
// rejects a malformed document with the same JsonParseError message and
// offset. append_json_string is the one string escaper, used by
// Json::dump and by direct writers.
//
// The full JSON grammar is supported except for exotic numbers (NaN/Inf
// are not valid JSON and are rejected on write) and nesting deeper than
// JsonCursor::kMaxDepth; integers that fit in int64 are preserved exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace xmem::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map (ordered) keeps serialization deterministic across runs.
using JsonObject = std::map<std::string, Json>;

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// The bytes a JSON string cannot hold unescaped: '"', '\\' and controls.
inline bool json_needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Append `s` as a quoted, escaped JSON string: the bytes Json::dump
/// writes for a string value or an object key.
void append_json_string(std::string& out, std::string_view s);

/// A pull lexer over one JSON document. Every method skips the whitespace
/// before its token and throws JsonParseError on malformed input. Walk
/// objects and arrays with the enter/next pairs:
///
///   if (cursor.enter_object()) {
///     do {
///       const std::string_view key = cursor.read_key(scratch);
///       ...read or skip one value...
///     } while (cursor.next_member());
///   }
///   if (cursor.enter_array()) {
///     do { ...read or skip one value... } while (cursor.next_element());
///   }
class JsonCursor {
 public:
  struct Number {
    bool is_int = true;  ///< an integer token that fits int64
    std::int64_t int_value = 0;
    double double_value = 0.0;  ///< set when !is_int
  };

  /// Deepest nesting of objects and arrays a document may have. Opening
  /// one more fails like any malformed input, so the recursive readers
  /// (Json::parse, skip_value) use a bounded stack on any thread.
  static constexpr int kMaxDepth = 512;

  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// The first byte of the next value, not consumed: '{', '[', '"', 't',
  /// 'f', 'n', or anything else for a number (read_number rejects what is
  /// not one).
  char peek_value();
  /// Consume '{'; false when the object is empty (its '}' consumed too).
  bool enter_object();
  /// A member's key and its ':'. The view points into the document, or
  /// into `scratch` when the key holds escapes.
  std::string_view read_key(std::string& scratch);
  /// After a member's value: true on ',', false on the closing '}'.
  bool next_member();
  /// Consume '['; false when the array is empty (its ']' consumed too).
  bool enter_array();
  /// After an element: true on ',', false on the closing ']'.
  bool next_element();
  /// A string value, decoded; a view as in read_key.
  std::string_view read_string(std::string& scratch);
  Number read_number();
  /// Consume `literal` ("true", "false" or "null").
  void read_literal(std::string_view literal);
  /// Consume one value of any type, checking its syntax.
  void skip_value();
  /// Only whitespace may follow the document.
  void finish();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return text_.size() - pos_; }

 private:
  [[noreturn]] void fail(const std::string& message) const;
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_whitespace();
  bool consume(char expected);
  void expect(char expected, const char* what);
  /// Consume an opening bracket one level down.
  void open(char bracket, const char* what);
  char advance();
  unsigned read_hex4();
  /// read_string with pos_ at the opening quote.
  std::string_view read_quoted(std::string& scratch);
  /// read_string past its plain prefix [start, pos_).
  std::string_view read_escaped(std::size_t start, std::string& scratch);
  /// read_number for fractions, exponents, long integers and bad tokens.
  Number read_number_slow(std::size_t start);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< objects and arrays open at pos_
  std::string skip_scratch_;
};

// The per-token paths are inline, so a streaming reader pays no call per
// token; escapes, long numbers and errors go out of line.

inline void JsonCursor::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (static_cast<unsigned char>(c) > ' ' ||
        (c != ' ' && c != '\t' && c != '\n' && c != '\r')) {
      return;
    }
    ++pos_;
  }
}

inline bool JsonCursor::consume(char expected) {
  if (pos_ < text_.size() && text_[pos_] == expected) {
    ++pos_;
    return true;
  }
  return false;
}

inline void JsonCursor::expect(char expected, const char* what) {
  if (!consume(expected)) fail(std::string("expected ") + what);
}

inline void JsonCursor::open(char bracket, const char* what) {
  expect(bracket, what);
  if (++depth_ > kMaxDepth) {
    --pos_;
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
}

inline char JsonCursor::peek_value() {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

inline bool JsonCursor::enter_object() {
  skip_whitespace();
  open('{', "'{'");
  skip_whitespace();
  if (!consume('}')) return true;
  --depth_;
  return false;
}

inline std::string_view JsonCursor::read_key(std::string& scratch) {
  skip_whitespace();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  if (text_[pos_] != '"') fail("expected object key");
  const std::string_view key = read_quoted(scratch);
  skip_whitespace();
  expect(':', "':'");
  return key;
}

inline bool JsonCursor::next_member() {
  skip_whitespace();
  if (consume(',')) return true;
  expect('}', "'}' or ','");
  --depth_;
  return false;
}

inline bool JsonCursor::enter_array() {
  skip_whitespace();
  open('[', "'['");
  skip_whitespace();
  if (!consume(']')) return true;
  --depth_;
  return false;
}

inline bool JsonCursor::next_element() {
  skip_whitespace();
  if (consume(',')) return true;
  expect(']', "']' or ','");
  --depth_;
  return false;
}

inline std::string_view JsonCursor::read_string(std::string& scratch) {
  skip_whitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
  return read_quoted(scratch);
}

inline std::string_view JsonCursor::read_quoted(std::string& scratch) {
  const char* const data = text_.data();
  const std::size_t start = ++pos_;
  std::size_t end = start;
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes a step: flag each byte that is '"', '\\' or below 0x20
    // (the high bit of its lane), then stop at the first flagged lane.
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    const auto below = [](std::uint64_t w, std::uint64_t n) {
      return (w - n) & ~w & kHigh;
    };
    while (end + 8 <= text_.size()) {
      std::uint64_t w;
      std::memcpy(&w, data + end, 8);
      const std::uint64_t flags = below(w ^ (kOnes * '"'), kOnes) |
                                  below(w ^ (kOnes * '\\'), kOnes) |
                                  below(w, kOnes * 0x20);
      if (flags != 0) {
        end += static_cast<std::size_t>(std::countr_zero(flags)) / 8;
        break;
      }
      end += 8;
    }
  }
  while (end < text_.size() && !json_needs_escape(data[end])) ++end;
  pos_ = end;
  if (end < text_.size() && data[end] == '"') {
    ++pos_;
    return std::string_view(data + start, end - start);
  }
  return read_escaped(start, scratch);
}

inline JsonCursor::Number JsonCursor::read_number() {
  skip_whitespace();
  const std::size_t start = pos_;
  const bool negative = consume('-');
  std::uint64_t magnitude = 0;
  std::size_t digits = 0;
  while (pos_ < text_.size() && is_digit(text_[pos_])) {
    magnitude = magnitude * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
    ++pos_;
    ++digits;
  }
  // Up to 18 digits always fit int64.
  const bool more = pos_ < text_.size() &&
                    (text_[pos_] == '.' || text_[pos_] == 'e' ||
                     text_[pos_] == 'E');
  if (digits == 0 || digits > 18 || more) return read_number_slow(start);
  Number number;
  number.int_value = negative ? -static_cast<std::int64_t>(magnitude)
                              : static_cast<std::int64_t>(magnitude);
  return number;
}

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const {
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(value_));
    return std::get<std::int64_t>(value_);
  }
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    return std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }

  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }

  /// Object access. `operator[]` creates members on mutable objects like a
  /// typical JSON API; `at` throws on absence; `get_or` never throws.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;

  /// Array helpers.
  void push_back(Json v);
  std::size_t size() const;
  Json& operator[](std::size_t index) { return as_array()[index]; }
  const Json& operator[](std::size_t index) const { return as_array()[index]; }

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize. `indent < 0` => compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws JsonParseError on malformed
  /// input (including trailing garbage).
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace xmem::util
