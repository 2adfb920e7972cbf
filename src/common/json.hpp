#pragma once
// Minimal dependency-free JSON emission and parsing.
//
// JsonObject is an ordered streaming builder: fields render in insertion
// order, numbers through std::to_chars (locale-independent, shortest
// round-trip form), so the same values always produce the same bytes — the
// property the JSONL trace bit-identity contract rests on. Non-finite
// doubles render as null (JSON has no Inf/NaN literals).
//
// JsonValue / json_parse is the read side, added for the coordinator wire
// protocol (src/coord): a strict recursive-descent parser over a bounded
// input that round-trips everything JsonObject emits. Malformed input of any
// kind — truncation, trailing garbage, bad escapes, absurd nesting — is
// rejected with a clean std::runtime_error, never UB or a partial value
// (tests/common/test_json.cpp pins this).

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fedsched::common {

/// `s` as a quoted JSON string token (escapes quotes, backslashes, control
/// characters; non-ASCII bytes pass through untouched).
[[nodiscard]] std::string json_quote(std::string_view s);

/// Shortest round-trip decimal form of `v`; "null" for NaN / ±Inf.
[[nodiscard]] std::string json_number(double v);

class JsonObject {
 public:
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonObject& field(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return field_int(key, static_cast<long long>(value));
    } else {
      return field_uint(key, static_cast<unsigned long long>(value));
    }
  }
  JsonObject& field(std::string_view key, std::span<const double> values);
  JsonObject& field(std::string_view key, std::span<const std::size_t> values);
  /// Splice a pre-rendered JSON value (object, array, ...) verbatim.
  JsonObject& field_raw(std::string_view key, std::string_view json);

  /// The object rendered as `{...}` (valid for an empty object too).
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& field_int(std::string_view key, long long value);
  JsonObject& field_uint(std::string_view key, unsigned long long value);
  void key(std::string_view k);

  std::string body_;
};

/// Parsed JSON document node. Objects keep their members in a sorted map —
/// lookup by key is what the protocol layer needs; emission order is the
/// writer's concern (JsonObject), never the parser's.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch so protocol
  /// code gets one uniform "malformed message" failure mode.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object member lookup: nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Member `key` coerced with a fallback for absent members; throws on a
  /// present-but-wrong-kind member (a typo in a spec should fail loudly).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] double get_number(const std::string& key, double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;

  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> v);
  static JsonValue make_object(std::map<std::string, JsonValue> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parse exactly one JSON document from `text` (leading/trailing whitespace
/// allowed, anything else after the value is an error). Throws
/// std::runtime_error with a position-annotated message on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace fedsched::common
