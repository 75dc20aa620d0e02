#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xmem::util {

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::out_of_range("Json::at: missing key '" + key + "'");
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

std::int64_t Json::get_int_or(const std::string& key,
                              std::int64_t fallback) const {
  if (!is_object()) return fallback;
  auto it = as_object().find(key);
  if (it == as_object().end() || !it->second.is_number()) return fallback;
  return it->second.as_int();
}

std::string Json::get_string_or(const std::string& key,
                                const std::string& fallback) const {
  if (!is_object()) return fallback;
  auto it = as_object().find(key);
  if (it == as_object().end() || !it->second.is_string()) return fallback;
  return it->second.as_string();
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("Json: NaN/Inf are not representable in JSON");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  // Ensure the value re-parses as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) == std::string::npos) {
    out += ".0";
  }
}

void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) *
                                                   static_cast<std::size_t>(depth + 1),
                                               ' ')
                                 : "";
  const std::string close_pad =
      pretty ? std::string(static_cast<std::size_t>(indent) *
                               static_cast<std::size_t>(depth),
                           ' ')
             : "";
  switch (v.type()) {
    case Json::Type::Null: out += "null"; break;
    case Json::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::Int: out += std::to_string(v.as_int()); break;
    case Json::Type::Double: append_double(out, v.as_double()); break;
    case Json::Type::String: append_json_string(out, v.as_string()); break;
    case Json::Type::Array: {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        if (pretty) {
          out.push_back('\n');
          out += pad;
        }
        dump_impl(item, out, indent, depth + 1);
      }
      if (pretty) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back(']');
      break;
    }
    case Json::Type::Object: {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        if (pretty) {
          out.push_back('\n');
          out += pad;
        }
        append_json_string(out, key);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_impl(value, out, indent, depth + 1);
      }
      if (pretty) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back('}');
      break;
    }
  }
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

Json parse_value(JsonCursor& cursor) {
  switch (cursor.peek_value()) {
    case '{': {
      JsonObject obj;
      if (cursor.enter_object()) {
        std::string scratch;
        do {
          std::string key(cursor.read_key(scratch));
          obj[std::move(key)] = parse_value(cursor);
        } while (cursor.next_member());
      }
      return Json(std::move(obj));
    }
    case '[': {
      JsonArray arr;
      if (cursor.enter_array()) {
        do {
          arr.push_back(parse_value(cursor));
        } while (cursor.next_element());
      }
      return Json(std::move(arr));
    }
    case '"': {
      std::string scratch;
      return Json(std::string(cursor.read_string(scratch)));
    }
    case 't': cursor.read_literal("true"); return Json(true);
    case 'f': cursor.read_literal("false"); return Json(false);
    case 'n': cursor.read_literal("null"); return Json(nullptr);
    default: {
      const JsonCursor::Number number = cursor.read_number();
      return number.is_int ? Json(number.int_value) : Json(number.double_value);
    }
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonCursor cursor(text);
  Json value = parse_value(cursor);
  cursor.finish();
  return value;
}

// ---------------------------------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!json_needs_escape(s[i])) continue;
    const auto c = static_cast<unsigned char>(s[i]);
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void JsonCursor::fail(const std::string& message) const {
  throw JsonParseError(message, pos_);
}

char JsonCursor::advance() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_++];
}

std::string_view JsonCursor::read_escaped(std::size_t start,
                                          std::string& scratch) {
  scratch.assign(text_.data() + start, pos_ - start);
  while (true) {
    const char c = advance();
    if (c == '"') break;
    if (c == '\\') {
      const char esc = advance();
      switch (esc) {
        case '"': scratch.push_back('"'); break;
        case '\\': scratch.push_back('\\'); break;
        case '/': scratch.push_back('/'); break;
        case 'b': scratch.push_back('\b'); break;
        case 'f': scratch.push_back('\f'); break;
        case 'n': scratch.push_back('\n'); break;
        case 'r': scratch.push_back('\r'); break;
        case 't': scratch.push_back('\t'); break;
        case 'u': {
          unsigned code = read_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair.
            if (!consume('\\') || !consume('u')) {
              fail("unpaired UTF-16 surrogate");
            }
            const unsigned low = read_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(scratch, code);
          break;
        }
        default: fail("invalid escape sequence");
      }
    } else if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    } else {
      scratch.push_back(c);
    }
  }
  return scratch;
}

unsigned JsonCursor::read_hex4() {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = advance();
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail("invalid \\u escape");
    }
  }
  return value;
}

JsonCursor::Number JsonCursor::read_number_slow(std::size_t start) {
  pos_ = start;
  consume('-');
  while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  bool is_floating = false;
  if (consume('.')) {
    is_floating = true;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    is_floating = true;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }
  if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
    fail("invalid number");
  }
  Number number;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  if (!is_floating &&
      std::from_chars(first, last, number.int_value).ec == std::errc()) {
    return number;
  }
  // Fractions, exponents and integers past int64 read as doubles.
  const std::string token(first, last);
  char* end = nullptr;
  number.is_int = false;
  number.double_value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) fail("invalid number");
  return number;
}

void JsonCursor::read_literal(std::string_view literal) {
  skip_whitespace();
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
}

void JsonCursor::skip_value() {
  switch (peek_value()) {
    case '{':
      if (enter_object()) {
        do {
          read_key(skip_scratch_);
          skip_value();
        } while (next_member());
      }
      return;
    case '[':
      if (enter_array()) {
        do {
          skip_value();
        } while (next_element());
      }
      return;
    case '"': read_string(skip_scratch_); return;
    case 't': read_literal("true"); return;
    case 'f': read_literal("false"); return;
    case 'n': read_literal("null"); return;
    default: read_number(); return;
  }
}

void JsonCursor::finish() {
  skip_whitespace();
  if (pos_ != text_.size()) {
    fail("trailing characters after JSON document");
  }
}

}  // namespace xmem::util
