#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace snap::json {

/// `d` as an integer when it is finite, integral and within ±2^53, the range
/// a double holds exactly; `dflt` otherwise (so 1.5, 1e300 and NaN never
/// reach a cast).
[[nodiscard]] inline std::int64_t exact_int64(double d, std::int64_t dflt) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!(d >= -kMaxExact && d <= kMaxExact)) return dflt;
  const auto i = static_cast<std::int64_t>(d);
  return static_cast<double>(i) == d ? i : dflt;
}

/// One JSON document node — the shared wire format of the bench reports
/// (snapbench::JsonReport) and the analytics service (snap/server).  The
/// design goals are the ones those two consumers actually need, nothing
/// more:
///
///   * deterministic emit — objects keep insertion order, numbers print the
///     shortest decimal form that round-trips through strtod, strings are
///     escape-correct per RFC 8259 (so a query answer serialized twice is
///     byte-identical, which the service's differential tests rely on);
///   * one small recursive-descent grammar with positioned error messages
///     for the ingest/query request bodies (depth-limited, rejects trailing
///     garbage, decodes \uXXXX escapes including surrogate pairs).  It emits
///     events to a `Sink`; the tree below is one sink, and a consumer that
///     needs no tree (the service's `/ingest` decoder) is another.
///
/// Numbers are stored as double throughout; integral values up to 2^53
/// therefore survive a round trip exactly, which covers every vertex id,
/// count and timestamp the graph service exchanges (vid_t payloads beyond
/// 2^53 would need a string field — far past the paper's 10^10 ambition).
class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;                         ///< null
  Value(std::nullptr_t) {}                   // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT(google-explicit-constructor)
  Value(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT(google-explicit-constructor)
  Value(int i) : Value(static_cast<double>(i)) {}  // NOLINT(google-explicit-constructor)
  Value(std::int64_t i)  // NOLINT(google-explicit-constructor)
      : Value(static_cast<double>(i)) {}
  Value(std::string s)  // NOLINT(google-explicit-constructor)
      : type_(Type::kString), str_(std::move(s)) {}
  Value(std::string_view s)  // NOLINT(google-explicit-constructor)
      : type_(Type::kString), str_(s) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT(google-explicit-constructor)

  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads with a fallback for absent/mistyped nodes — the ergonomic
  /// shape request-body handlers want (`body.get("time").as_int64(0)`).
  [[nodiscard]] bool as_bool(bool dflt = false) const {
    return is_bool() ? bool_ : dflt;
  }
  [[nodiscard]] double as_double(double dflt = 0.0) const {
    return is_number() ? num_ : dflt;
  }
  /// Integer reads are exact or nothing (see exact_int64).
  [[nodiscard]] std::int64_t as_int64(std::int64_t dflt = 0) const {
    return is_number() ? exact_int64(num_, dflt) : dflt;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Arrays.
  void push_back(Value v) {
    type_ = Type::kArray;
    arr_.push_back(std::move(v));
  }
  [[nodiscard]] std::size_t size() const {
    return is_array() ? arr_.size() : (is_object() ? obj_.size() : 0);
  }
  [[nodiscard]] const Array& items() const { return arr_; }
  [[nodiscard]] const Value& operator[](std::size_t i) const {
    return arr_[i];
  }

  /// Objects.  `set` replaces an existing key in place (keeping its
  /// position) or appends, so emit order is insertion order either way.
  void set(std::string_view key, Value v);
  [[nodiscard]] const Object& members() const { return obj_; }
  /// Pointer to the member value, or nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Member value, or a shared null sentinel when absent — allows chaining
  /// `v.get("a").get("b").as_int64()` without null checks at every hop.
  [[nodiscard]] const Value& get(std::string_view key) const;

  /// Compact serialization (no whitespace).  Appending flavor for hot
  /// emit loops, returning flavor for convenience.
  void dump(std::string* out) const;
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Append `s` to `out` as a JSON string literal (quotes included): ", \ and
/// control characters are escaped, everything else — including multi-byte
/// UTF-8 — passes through verbatim.
void escape(std::string_view s, std::string* out);

/// Append the shortest decimal form of `d` that strtod parses back to
/// exactly `d`; integral values within the 2^53-exact window print with no
/// fraction part.  Non-finite values (which JSON cannot represent) emit 0.
void append_number(double d, std::string* out);

/// Receiver of the parser's events, in document order.  An object member
/// arrives as `key` followed by its value's events; string and key views
/// point into the parsed text or a parser buffer and are valid only for the
/// duration of the call.  On malformed input the events stop at the error,
/// so a sink must not act on what it has seen until `parse` returns true.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void null() = 0;
  virtual void boolean(bool b) = 0;
  virtual void number(double d) = 0;
  virtual void string(std::string_view s) = 0;
  virtual void key(std::string_view k) = 0;
  virtual void begin_array() = 0;
  virtual void end_array() = 0;
  virtual void begin_object() = 0;
  virtual void end_object() = 0;
};

/// Parse one JSON document into `sink`.  Returns false and (when `error` is
/// non-null) a "byte N: reason" message on malformed input.  Trailing
/// non-whitespace after the document is an error; nesting beyond 128 levels
/// is rejected (the service parses attacker-supplied bodies — unbounded
/// recursion would be a stack-overflow hole).  Numbers are correctly
/// rounded (integers of at most 15 digits take an exact integer path);
/// magnitudes beyond the double range read as ±inf, below it as ±0.
bool parse(std::string_view text, Sink& sink, std::string* error = nullptr);

/// Parse one JSON document into a tree: true and `*out` filled on success,
/// false with the same error message as above on malformed input.
bool parse(std::string_view text, Value* out, std::string* error = nullptr);

/// Parse a run of one array's elements, with the grammar `parse` uses:
/// `from` is the byte just past the array's '[' or the first byte of an
/// element, and `depth` is the elements' nesting depth (the root value sits
/// at 0, so the records of `{"updates":[...]}` sit at 2, and the 128-level
/// limit counts as in a whole-document parse).  Stops before the first
/// element that starts at or after byte `limit`, or at the array's closing
/// ']', and sets `*stop` to that byte.  For the same elements `sink` gets
/// the same events as from `parse` (the array's own begin/end excluded),
/// and malformed input fails with the same "byte N: reason" message, N
/// counted from the start of `text`.  This lets callers split one large
/// array into runs that parse independently.
bool parse_elements(std::string_view text, std::size_t from, int depth,
                    std::size_t limit, Sink& sink, std::size_t* stop,
                    std::string* error = nullptr);

}  // namespace snap::json
