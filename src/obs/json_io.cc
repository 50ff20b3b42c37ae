#include "obs/json_io.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ara::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber) return 0.0;
  return std::strtod(text.c_str(), nullptr);
}

std::uint64_t JsonValue::as_u64() const {
  if (kind != Kind::kNumber) return 0;
  return std::strtoull(text.c_str(), nullptr, 10);
}

namespace {

/// Recursive-descent reader that materializes a DOM. Depth-limited against
/// pathological nesting.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool run(JsonValue* out, std::string* error) {
    skip_ws();
    if (!value(out, 0)) {
      emit(error);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content after top-level value");
      emit(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void emit(std::string* error) const {
    if (error != nullptr) {
      *error = "offset " + std::to_string(err_pos_) + ": " + err_;
    }
  }

  bool fail(const char* message) {
    if (err_ == nullptr) {
      err_ = message;
      err_pos_ = pos_;
    }
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->text);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key string");
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(&member, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue item;
      if (!value(&item, depth + 1)) return false;
      out->items.push_back(std::move(item));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool string(std::string* out) {
    ++pos_;  // '"'
    while (!eof()) {
      const auto c = static_cast<unsigned char>(peek());
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("unterminated escape");
        const char e = peek();
        switch (e) {
          case '"':
            out->push_back('"');
            ++pos_;
            break;
          case '\\':
            out->push_back('\\');
            ++pos_;
            break;
          case '/':
            out->push_back('/');
            ++pos_;
            break;
          case 'b':
            out->push_back('\b');
            ++pos_;
            break;
          case 'f':
            out->push_back('\f');
            ++pos_;
            break;
          case 'n':
            out->push_back('\n');
            ++pos_;
            break;
          case 'r':
            out->push_back('\r');
            ++pos_;
            break;
          case 't':
            out->push_back('\t');
            ++pos_;
            break;
          case 'u': {
            ++pos_;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              if (eof() || !std::isxdigit(static_cast<unsigned char>(peek()))) {
                return fail("invalid \\u escape");
              }
              const char h = peek();
              cp = cp * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0'
                                : (h | 0x20) - 'a' + 10);
              ++pos_;
            }
            // UTF-8 encode the code point (surrogate pairs are not
            // produced by our own writers; a lone surrogate is preserved
            // as-is in its 3-byte form, which keeps round-trips stable).
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            return fail("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return fail("raw control character in string");
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("invalid number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit required after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit required in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    out->text.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* err_ = nullptr;
  std::size_t err_pos_ = 0;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Reader(text).run(out, error);
}

void json_escape(std::ostream& os, std::string_view s) {
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << raw;
        }
    }
  }
}

void json_number(std::ostream& os, double v, int digits) {
  if (!std::isfinite(v)) {
    os << 0;  // JSON has no NaN/Inf
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  os << buf;
}

}  // namespace ara::obs
