#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fedsched::common {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always fit the shortest form of a double
  return std::string(buf, end);
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_quote(k);
  body_ += ':';
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_quote(value);
  return *this;
}

JsonObject& JsonObject::field_int(std::string_view k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field_uint(std::string_view k, unsigned long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::span<const double> values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += json_number(values[i]);
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::span<const std::size_t> values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += std::to_string(values[i]);
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::field_raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

namespace {

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(std::string("JsonValue: expected ") + want +
                           ", got " + kNames[static_cast<int>(got)]);
}

/// Strict recursive-descent parser. Depth is bounded so adversarial input
/// (a megabyte of '[') can't blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON value");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json_parse: " + what + " at byte " +
                             std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  void expect_literal(std::string_view lit) {
    for (char c : lit) {
      if (eof() || text_[pos_] != c) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"': v = JsonValue::make_string(parse_string()); break;
      case 't': expect_literal("true"); v = JsonValue::make_bool(true); break;
      case 'f': expect_literal("false"); v = JsonValue::make_bool(false); break;
      case 'n': expect_literal("null"); break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // Surrogate pair: the low half must follow as another \uXXXX.
      expect('\\');
      expect('u');
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && text_[pos_] == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("bad number");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (!eof() && text_[pos_] == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad number");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad number");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_) fail("bad number");
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(v);
  return j;
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace fedsched::common
