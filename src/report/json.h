// Minimal JSON reader/writer (no external dependencies) used to exchange
// structured data with downstream tooling: sign-off reports, sweep series,
// and the request/response schema of the service front end.
//
// Writing supports objects, arrays, strings (escaped), numbers, booleans,
// and null via a small builder API; output is deterministic (insertion
// order). Numeric policy is explicit: Json::number() REJECTS NaN/Inf with a
// dsmt::SolveError (kNonFinite) — a bare `nan` must never reach a payload —
// while Json::number_or_null() is the opt-in lossy mapping (non-finite ->
// null) for diagnostic fields where NaN is a legitimate observation (e.g. a
// fault-injected residual).
//
// JsonWriter appends the same bytes without building a tree, for documents
// too large or too hot to materialize (service::write_response, the
// streamed batch document). Json::dump is JsonWriter walking the tree, so
// the library has one escaper, one number formatter and one indenter.
//
// Reading has one grammar, JsonReader: a strict pull reader with a depth
// bound. Json::parse builds its tree from it, and decoders that know their
// schema read straight into their own types with no tree (the service's
// request decoder). Malformed input raises dsmt::SolveError (kInvalidInput)
// carrying the byte offset. parse(dump(x)) round-trips every tree the
// builder can produce, including adversarial strings (quotes, backslashes,
// control characters, \uXXXX escapes).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsmt::report {

class JsonReader;
class JsonWriter;

/// A JSON value tree.
class Json {
 public:
  static Json object();
  static Json array();
  static Json string(std::string value);
  /// value [1]: emitted verbatim, unit is the caller's concern. Throws
  /// dsmt::SolveError (kNonFinite) when value is NaN/Inf: payloads carry
  /// finite numbers or an explicit null, never `nan`.
  static Json number(double value);
  /// value [1]: like number(), but maps non-finite to JSON null instead of
  /// throwing — for diagnostics where NaN is the honest observation.
  static Json number_or_null(double value);
  static Json integer(long long value);
  static Json boolean(bool value);
  static Json null();

  /// Parses a complete JSON document (trailing garbage is an error). Throws
  /// dsmt::SolveError (kInvalidInput) with the byte offset on malformed
  /// input or nesting deeper than 64 levels.
  static Json parse(const std::string& text);

  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Numeric value [1] of a number/integer node; throws dsmt::SolveError
  /// (kInvalidInput) on any other kind.
  double as_number() const;
  /// Integer value of an integer node (or a number with integral value).
  long long as_integer() const;
  const std::string& as_string() const;
  bool as_bool() const;

  /// Object member lookup; nullptr when absent or not an object. Objects
  /// never hold duplicate keys (set() replaces, parse() rejects them).
  const Json* find(const std::string& key) const;
  /// Array length / object member count (0 for scalars).
  std::size_t size() const;
  /// Array element; throws std::out_of_range.
  const Json& at(std::size_t index) const;
  /// Object member by position (insertion order); throws std::out_of_range.
  const std::pair<std::string, Json>& member(std::size_t index) const;

  /// Object member (asserts object kind); an existing key is replaced in
  /// place, keeping its insertion position. Returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Array append (asserts array kind).
  Json& push(Json value);

  /// Serializes; `indent` < 0 means compact.
  std::string dump(int indent = 2) const;

 private:
  enum class Kind {
    kObject,
    kArray,
    kString,
    kNumber,
    kInteger,
    kBool,
    kNull
  };
  Kind kind_ = Kind::kObject;
  std::string str_;
  double num_ = 0.0;
  long long int_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;

  friend class JsonWriter;
  void write_to(JsonWriter& writer) const;
  /// The value at the reader's position, as a tree.
  static Json build(JsonReader& in);
};

/// Strict pull reader over one JSON document: the library's one JSON
/// grammar. Read values in document order. peek() classifies the next value
/// without consuming it; then one call reads that value whole:
/// begin_object() or begin_array() (then next_member() or next_item() until
/// it returns false, reading one value after each true), scalar(), or
/// skip(). finish() rejects trailing bytes.
///
/// Malformed input throws dsmt::SolveError (kInvalidInput) reading "parse
/// error at offset N: ..." (diag kernel "report/json/parse"). Duplicate keys
/// are rejected in every object, skipped ones included, and so are nesting
/// deeper than 64 levels and numbers that overflow to non-finite.
class JsonReader {
 public:
  enum class Type { kObject, kArray, kScalar };

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Enforces the depth bound and skips whitespace; consumes nothing else.
  /// A byte that starts no value reads as kScalar, and scalar() rejects it.
  Type peek();
  void begin_object();
  /// Reads the separator, name and colon of the next member: true with
  /// key() naming it, or false after the object's closing brace.
  bool next_member();
  /// The name next_member() just read; valid until the next call.
  std::string_view key() const { return keys_[key_count_ - 1]; }
  void begin_array();
  /// Reads the separator before the next element: true when an element
  /// follows, false after the array's closing bracket.
  bool next_item();
  /// A string, number or literal. An integral token that fits long long
  /// is an integer leaf (strtoll), anything else a number (strtod).
  Json scalar();
  /// Reads and checks the next value, whatever it is, keeping nothing.
  void skip();
  /// Rejects anything but whitespace after the document.
  void finish();

 private:
  /// Values nest at most this deep; one more level is an error.
  static constexpr std::size_t kMaxDepth = 64;

  /// One open container.
  struct Level {
    std::size_t key_base;      ///< its first member name in keys_
    std::size_t decoded_base;  ///< its first name in decoded_keys_
    bool first;                ///< nothing has been read inside it yet
  };

  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  char current();
  void expect(char c);
  bool consume_literal(std::string_view literal);
  unsigned hex4();
  /// End of the run of string bytes from `from` that need no decoding.
  std::size_t plain_end(std::size_t from) const;
  void read_string(std::string& out);
  std::string_view read_key();
  Json number();
  void open_level(char bracket);
  void close_level();

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Open containers, outermost first: the depth bound keeps them inline.
  Level levels_[kMaxDepth + 1] = {};
  std::size_t depth_ = 0;
  /// Member names of every open object, outermost first; the first
  /// key_count_ are live. A name without escapes is a view of the text;
  /// one with escapes views its decoded copy in decoded_keys_.
  std::vector<std::string_view> keys_;
  std::size_t key_count_ = 0;
  std::vector<std::unique_ptr<std::string>> decoded_keys_;
};

/// Appends JSON text to a caller's string without building a tree. The
/// bytes equal Json::dump(indent) of the same tree nested `depth` levels
/// deep. Open and close containers in order; name each object member with
/// key() and announce each array element with item() before its value.
/// number() throws exactly what Json::number() throws for NaN/Inf, after
/// appending nothing for that value.
class JsonWriter {
 public:
  /// `indent` < 0 means compact.
  JsonWriter(std::string& out, int indent, int depth = 0)
      : out_(out), indent_(indent), depth_(depth) {}

  JsonWriter& begin_object() { return enter('{'); }
  JsonWriter& end_object() { return leave('}'); }
  JsonWriter& begin_array() { return enter('['); }
  JsonWriter& end_array() { return leave(']'); }
  /// Member separator, line break and `"name": ` of the next member.
  JsonWriter& key(std::string_view name);
  /// Element separator and line break of the next array element.
  JsonWriter& item();

  JsonWriter& string(std::string_view value);
  /// value [1]: `%.10g`; throws dsmt::SolveError (kNonFinite) on NaN/Inf.
  JsonWriter& number(double value);
  /// value [1]: like number(), but writes null for NaN/Inf.
  JsonWriter& number_or_null(double value);
  JsonWriter& integer(long long value);
  JsonWriter& boolean(bool value);
  JsonWriter& null();
  /// A whole tree, nested at the current depth.
  JsonWriter& value(const Json& tree);

 private:
  JsonWriter& enter(char bracket);
  JsonWriter& leave(char bracket);
  void newline();

  std::string& out_;
  const int indent_;
  int depth_;          // indentation level of the next line break
  bool first_ = true;  // the innermost open container is still empty
};

}  // namespace dsmt::report
