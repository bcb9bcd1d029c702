// Minimal JSON value model, writer, and parser.
//
// Used for model serialization (core/model_io) and experiment metadata. The
// subset implemented is complete JSON minus \uXXXX surrogate pairs (escapes
// are decoded to UTF-8 for the BMP). Numbers are stored as double, which is
// sufficient for model coefficients and counter rates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pwx {

/// A JSON value: null, bool, number, string, array, or object.
class Json {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  // std::map keeps keys ordered, making serialized models diffable.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double n) : type_(Type::Number), num_(n) {}
  Json(int n) : type_(Type::Number), num_(n) {}
  Json(std::int64_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
  Json(std::size_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }

  /// Typed accessors; throw pwx::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable access, converting a Null value into an object.
  Object& make_object();

  /// Object field lookup; throws if not an object or key missing.
  const Json& at(std::string_view key) const;
  /// Object field lookup returning nullptr when absent.
  const Json* find(std::string_view key) const;
  /// Insert or assign an object field.
  Json& operator[](std::string_view key);

  /// Serialize. `indent` < 0 means compact single-line output.
  std::string dump(int indent = 2) const;

  /// Deepest array/object nesting parse() accepts. The parser recurses once
  /// per level, so the bound keeps hostile input off the stack limit; the
  /// deepest document this library writes (obs::to_json with exemplars) has
  /// 5 levels.
  static constexpr int kMaxDepth = 64;

  /// Parse a complete JSON document; throws pwx::IoError, with the byte
  /// offset, on syntax errors and on nesting deeper than kMaxDepth.
  static Json parse(std::string_view text);

private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace pwx
