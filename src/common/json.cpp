#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace pwx {

bool Json::as_bool() const {
  PWX_REQUIRE(type_ == Type::Bool, "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  PWX_REQUIRE(type_ == Type::Number, "JSON value is not a number");
  return num_;
}

const std::string& Json::as_string() const {
  PWX_REQUIRE(type_ == Type::String, "JSON value is not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  PWX_REQUIRE(type_ == Type::Array, "JSON value is not an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  PWX_REQUIRE(type_ == Type::Object, "JSON value is not an object");
  return obj_;
}

Json::Object& Json::make_object() {
  if (type_ == Type::Null) {
    type_ = Type::Object;
  }
  PWX_REQUIRE(type_ == Type::Object, "JSON value is not an object");
  return obj_;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  PWX_REQUIRE(found != nullptr, "missing JSON key '", std::string(key), "'");
  return *found;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) {
    return nullptr;
  }
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json& Json::operator[](std::string_view key) {
  auto& obj = make_object();
  const auto it = obj.find(key);
  if (it != obj.end()) {
    return it->second;
  }
  return obj.emplace(std::string(key), Json{}).first->second;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
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
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double n) {
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", n);
    out += buf;
    return;
  }
  PWX_REQUIRE(std::isfinite(n), "cannot serialize non-finite number to JSON");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", n);
  out += buf;
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: dump_number(out, num_); return;
    case Type::String: dump_string(out, str_); return;
    case Type::Array: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) {
          out += ',';
        }
        indent_to(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += ']';
      return;
    }
    case Type::Object: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj_) {
        if (!first) {
          out += ',';
        }
        first = false;
        indent_to(out, indent, depth + 1);
        dump_string(out, key);
        out += indent >= 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& message) {
    throw IoError("JSON parse error at offset " + std::to_string(pos_) + ": " +
                  message);
  }

  /// Enter one array/object level (at its opening bracket).
  void descend() {
    if (++depth_ > Json::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth) + " levels");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail("unexpected character");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    descend();
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    descend();
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode BMP code point as UTF-8 (surrogate pairs unsupported).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number");
    }
    // Like dump(), which refuses non-finite numbers: every parsed document
    // can be written back.
    if (!std::isfinite(value)) {
      fail("number out of range");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects at pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace pwx
