#include "snap/util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace snap::json {

namespace {

const Value kNullValue{};

constexpr int kMaxDepth = 128;

}  // namespace

void Value::set(std::string_view key, Value v) {
  type_ = Type::kObject;
  for (Member& m : obj_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : obj_)
    if (m.first == key) return &m.second;
  return nullptr;
}

const Value& Value::get(std::string_view key) const {
  const Value* v = find(key);
  return v != nullptr ? *v : kNullValue;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::kNull:
      return true;
    case Value::Type::kBool:
      return a.bool_ == b.bool_;
    case Value::Type::kNumber:
      return a.num_ == b.num_;
    case Value::Type::kString:
      return a.str_ == b.str_;
    case Value::Type::kArray:
      return a.arr_ == b.arr_;
    case Value::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Emit.

void escape(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void append_number(double d, std::string* out) {
  if (!std::isfinite(d)) {
    out->push_back('0');
    return;
  }
  // Integral doubles within the exactly-representable window print as
  // integers — ids, counts and epochs stay grep-able and byte-stable.
  if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {  // 2^53
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out->append(buf);
    return;
  }
  // Shortest form that survives a strtod round trip.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out->append(buf);
}

void Value::dump(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      append_number(num_, out);
      break;
    case Type::kString:
      escape(str_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& v : arr_) {
        if (!first) out->push_back(',');
        first = false;
        v.dump(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const Member& m : obj_) {
        if (!first) out->push_back(',');
        first = false;
        escape(m.first, out);
        out->push_back(':');
        m.second.dump(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Parse.

namespace {

/// The grammar: recursive descent over the text, one event per token.
class Parser {
 public:
  Parser(std::string_view text, Sink& sink) : text_(text), sink_(sink) {}

  bool run(std::string* error) {
    bool ok = parse_value(0);
    if (ok) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        ok = false;
      }
    }
    if (!ok && error != nullptr) *error = error_;
    return ok;
  }

  /// The run of array elements from byte `from`: see json::parse_elements.
  bool run_elements(std::size_t from, int depth, std::size_t limit,
                    std::size_t* stop, std::string* error) {
    pos_ = std::min(from, text_.size());
    const bool ok = parse_elements(depth, limit);
    if (ok)
      *stop = pos_;
    else if (error != nullptr)
      *error = error_;
    return ok;
  }

 private:
  bool fail(const std::string& why) {
    if (error_.empty())
      error_ = "byte " + std::to_string(pos_) + ": " + why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  [[nodiscard]] bool at_digit() const {
    return !at_end() && peek() >= '0' && peek() <= '9';
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit)
      return fail("invalid literal");
    pos_ += lit.size();
    return true;
  }

  bool parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) return false;
        sink_.null();
        return true;
      case 't':
        if (!consume_literal("true")) return false;
        sink_.boolean(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return false;
        sink_.boolean(false);
        return true;
      case '"': {
        std::string_view s;
        if (!parse_string(&s)) return false;
        sink_.string(s);
        return true;
      }
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  bool parse_array(int depth) {
    ++pos_;  // '['
    sink_.begin_array();
    if (!parse_elements(depth + 1, std::string_view::npos)) return false;
    ++pos_;  // ']'
    sink_.end_array();
    return true;
  }

  /// The elements of an array, at `depth`, from just past its '[' or from
  /// the first byte of an element: stops with pos_ on the array's ']', or
  /// on the first element that starts at or after `limit`.
  bool parse_elements(int depth, std::size_t limit) {
    skip_ws();
    if (!at_end() && peek() == ']') return true;  // an empty array
    for (;;) {
      if (pos_ >= limit) return true;
      if (!parse_value(depth)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ']') return true;
      if (peek() != ',') return fail("expected ',' or ']' in array");
      ++pos_;
      skip_ws();
    }
  }

  bool parse_object(int depth) {
    ++pos_;  // '{'
    sink_.begin_object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      sink_.end_object();
      return true;
    }
    for (;;) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string_view key;
      if (!parse_string(&key)) return false;
      sink_.key(key);
      skip_ws();
      if (at_end() || text_[pos_] != ':') return fail("expected ':' after key");
      ++pos_;
      if (!parse_value(depth + 1)) return false;
      skip_ws();
      if (at_end()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') {
        sink_.end_object();
        return true;
      }
      if (c != ',') {
        --pos_;
        return fail("expected ',' or '}' in object");
      }
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void append_utf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// Decode the string at the opening quote.  `*out` views the text itself
  /// when the string has no escapes, else `buf_`, which holds each run of
  /// plain bytes appended in one call and each escape decoded.
  bool parse_string(std::string_view* out) {
    ++pos_;  // opening quote
    bool escaped = false;
    for (;;) {
      std::size_t end = pos_;
      while (end < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[end]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++end;
      }
      const std::string_view run = text_.substr(pos_, end - pos_);
      if (end == text_.size()) {
        pos_ = end;
        return fail("unterminated string");
      }
      pos_ = end + 1;
      const char c = text_[end];
      if (c == '"') {
        if (!escaped) {
          *out = run;
          return true;
        }
        buf_.append(run);
        *out = buf_;
        return true;
      }
      if (c != '\\') return fail("raw control character in string");
      if (!escaped) buf_.clear();
      escaped = true;
      buf_.append(run);
      if (at_end()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          buf_.push_back('"');
          break;
        case '\\':
          buf_.push_back('\\');
          break;
        case '/':
          buf_.push_back('/');
          break;
        case 'b':
          buf_.push_back('\b');
          break;
        case 'f':
          buf_.push_back('\f');
          break;
        case 'n':
          buf_.push_back('\n');
          break;
        case 'r':
          buf_.push_back('\r');
          break;
        case 't':
          buf_.push_back('\t');
          break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF)
                return fail("invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(cp, &buf_);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_number() {
    const std::size_t start = pos_;
    const bool negative = !at_end() && peek() == '-';
    if (negative) ++pos_;
    if (!at_digit()) return fail("invalid value");
    // JSON forbids leading zeros ("012"), octal-looking input is a typo.
    if (peek() == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9')
      return fail("leading zero in number");
    const std::size_t digits = pos_;
    while (at_digit()) ++pos_;
    const std::size_t int_end = pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (!at_digit()) return fail("digit required after decimal point");
      while (at_digit()) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!at_digit()) return fail("digit required in exponent");
      while (at_digit()) ++pos_;
    }
    double d = 0.0;
    if (pos_ == int_end && int_end - digits <= 15) {
      // A plain integer of at most 15 digits is below 2^53, so its double
      // is exact: the value from_chars gives, without its general path.
      // The sign goes on the double, so -0 stays -0.0.
      std::int64_t v = 0;
      for (std::size_t i = digits; i < int_end; ++i)
        v = v * 10 + (text_[i] - '0');
      d = static_cast<double>(v);
      if (negative) d = -d;
    } else {
      // from_chars reads the validated span in place, correctly rounded.
      // On overflow or underflow it gives no value; strtod then gives ±inf
      // or ±0.
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      if (std::from_chars(first, last, d).ec != std::errc{})
        d = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    sink_.number(d);
    return true;
  }

  std::string_view text_;
  Sink& sink_;
  std::size_t pos_ = 0;
  std::string error_;
  std::string buf_;
};

/// The tree sink: builds the `Value` document from the events.
class TreeBuilder final : public Sink {
 public:
  explicit TreeBuilder(Value* root) : root_(root) {}

  void null() override { add(Value()); }
  void boolean(bool b) override { add(Value(b)); }
  void number(double d) override { add(Value(d)); }
  void string(std::string_view s) override { add(Value(s)); }
  void key(std::string_view k) override { open_.back().key.assign(k); }
  void begin_array() override { open_.push_back({Value::array(), {}}); }
  void begin_object() override { open_.push_back({Value::object(), {}}); }
  void end_array() override { close(); }
  void end_object() override { close(); }

 private:
  struct Open {
    Value value;
    std::string key;  ///< the member being read, for objects
  };

  void add(Value v) {
    if (open_.empty()) {
      *root_ = std::move(v);
      return;
    }
    Open& top = open_.back();
    if (top.value.is_array())
      top.value.push_back(std::move(v));
    else
      top.value.set(top.key, std::move(v));
  }

  void close() {
    Value v = std::move(open_.back().value);
    open_.pop_back();
    add(std::move(v));
  }

  Value* root_;
  std::vector<Open> open_;
};

}  // namespace

bool parse(std::string_view text, Sink& sink, std::string* error) {
  return Parser(text, sink).run(error);
}

bool parse(std::string_view text, Value* out, std::string* error) {
  TreeBuilder tree(out);
  return parse(text, tree, error);
}

bool parse_elements(std::string_view text, std::size_t from, int depth,
                    std::size_t limit, Sink& sink, std::size_t* stop,
                    std::string* error) {
  return Parser(text, sink).run_elements(from, depth, limit, stop, error);
}

}  // namespace snap::json
