#include "report/json.h"

#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/status.h"

namespace dsmt::report {

namespace {

[[noreturn]] void throw_json_error(const char* kernel, const std::string& what,
                                   core::StatusCode status) {
  core::SolverDiag diag;
  diag.record(kernel, status, 0, 0.0, what);
  throw SolveError("report/json: " + what, diag);
}

/// The one rejection of a non-finite payload number, whether it meets
/// Json::number() or JsonWriter::number().
void require_finite(double value) {
  if (!std::isfinite(value))
    throw_json_error("report/json", "non-finite number in payload "
                     "(use number_or_null for diagnostic fields)",
                     core::StatusCode::kNonFinite);
}

__extension__ using Uint128 = unsigned __int128;

/// 10^0 .. 10^38, each exact: 10^38 is the largest power of ten below 2^128.
constexpr std::array<Uint128, 39> kPow10 = [] {
  std::array<Uint128, 39> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// Binary exponents floor(log2 |v|) the exact path covers: |v| in
/// [2^-43, 2^127), about 1.1e-13 to 1.7e38. Below, m * 10^k (k = 9 - the
/// decimal exponent) would outgrow 128 bits; above, m * 2^e would.
constexpr int kMinExp2 = -43;
constexpr int kMaxExp2 = 126;

/// Bytes format_g10 may write: "-d.ddddddddde-308" and its terminator.
constexpr std::size_t kG10Bytes = 32;

/// Writes a finite `value` into `buf` exactly as snprintf's "%.10g" does
/// and returns the length: the library's one decision on how a double
/// prints. An integral |v| < 1e10 prints as its digits alone (except -0,
/// which keeps its sign). A normal |v| in [2^-43, 2^127) is rounded to ten
/// significant digits by exact 128-bit integer arithmetic, half to even on
/// an exact tie, as glibc rounds. Everything else (subnormals, smaller and
/// larger magnitudes) goes to snprintf itself. std::to_chars is not used
/// for doubles: its tables' pages cost the socket server measurable
/// resident memory (DESIGN.md §18).
std::size_t format_g10(double value, char* buf) {
  if (std::fabs(value) < 1e10) {
    const long long whole = static_cast<long long>(value);
    if (static_cast<double>(whole) == value &&
        (whole != 0 || !std::signbit(value)))
      return static_cast<std::size_t>(
          std::to_chars(buf, buf + kG10Bytes, whole).ptr - buf);
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const int e2 = biased - 1023;
  if (biased == 0 || e2 < kMinExp2 || e2 > kMaxExp2) {
    if (value == 0.0) {  // only -0 gets here
      std::memcpy(buf, "-0", 2);
      return 2;
    }
    return static_cast<std::size_t>(
        std::snprintf(buf, kG10Bytes, "%.10g", value));
  }

  // |v| = m * 2^e exactly. x is floor(log10 |v|) or one less (floor of
  // e2 * log10(2), exact for |e2| <= 2620), so q = floor(|v| * 10^(9 - x))
  // has ten digits, or eleven when x is one short; q + r/d is that product
  // exactly.
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = e2 - 52;
  int x = (e2 * 315653) >> 20;
  Uint128 q = 0;
  Uint128 r = 0;
  Uint128 d = 0;
  if (x <= 9) {  // e2 <= 33, so e < 0
    const Uint128 a = Uint128{m} * kPow10[static_cast<std::size_t>(9 - x)];
    d = Uint128{1} << -e;
    q = a >> -e;
    r = a & (d - 1);
  } else if (e >= 0) {
    const Uint128 a = Uint128{m} << e;
    d = kPow10[static_cast<std::size_t>(x - 9)];
    q = a / d;
    r = a % d;
  } else {  // 2^34 <= |v| < 2^52: the divisor fits 64 bits
    const std::uint64_t d64 =
        static_cast<std::uint64_t>(kPow10[static_cast<std::size_t>(x - 9)])
        << -e;
    d = d64;
    q = m / d64;
    r = m % d64;
  }
  if (q >= kPow10[10]) {  // x was one short: drop a digit into r/d
    ++x;
    r += (q % 10) * d;
    q /= 10;
    d *= 10;
  }
  if (2 * r > d || (2 * r == d && (q & 1) != 0)) ++q;
  if (q == kPow10[10]) {  // 9.9999999995eX rounds up to 1e(X+1)
    q = kPow10[9];
    ++x;
  }

  char digits[10];
  auto n = static_cast<std::uint64_t>(q);
  for (int i = 9; i >= 0; --i) {
    digits[i] = static_cast<char>('0' + n % 10);
    n /= 10;
  }
  int len = 10;
  while (digits[len - 1] == '0') --len;  // %g drops trailing zeros

  char* p = buf;
  if (std::signbit(value)) *p++ = '-';
  if (x >= -4 && x < 10) {  // %f style with 9 - x decimals
    if (x >= 0) {
      for (int i = 0; i <= x; ++i) *p++ = i < len ? digits[i] : '0';
      if (len > x + 1) *p++ = '.';
      for (int i = x + 1; i < len; ++i) *p++ = digits[i];
    } else {
      *p++ = '0';
      *p++ = '.';
      for (int i = 1; i < -x; ++i) *p++ = '0';
      for (int i = 0; i < len; ++i) *p++ = digits[i];
    }
  } else {  // %e style: x is in [-13, -5] or [10, 38], two digits
    *p++ = digits[0];
    if (len > 1) *p++ = '.';
    for (int i = 1; i < len; ++i) *p++ = digits[i];
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x;
    *p++ = static_cast<char>('0' + ax / 10);
    *p++ = static_cast<char>('0' + ax % 10);
  }
  return static_cast<std::size_t>(p - buf);
}

}  // namespace

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}
Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}
Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(value);
  return j;
}
Json Json::number(double value) {
  require_finite(value);
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = value;
  return j;
}
Json Json::number_or_null(double value) {
  if (!std::isfinite(value)) return null();
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = value;
  return j;
}
Json Json::integer(long long value) {
  Json j;
  j.kind_ = Kind::kInteger;
  j.int_ = value;
  return j;
}
Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}
Json Json::null() {
  Json j;
  j.kind_ = Kind::kNull;
  return j;
}

double Json::as_number() const {
  if (kind_ == Kind::kNumber) return num_;
  if (kind_ == Kind::kInteger) return static_cast<double>(int_);
  throw_json_error("report/json", "as_number on non-numeric node",
                   core::StatusCode::kInvalidInput);
}

long long Json::as_integer() const {
  if (kind_ == Kind::kInteger) return int_;
  if (kind_ == Kind::kNumber && num_ == std::floor(num_) &&
      std::abs(num_) < 9.2e18)
    return static_cast<long long>(num_);
  throw_json_error("report/json", "as_integer on non-integral node",
                   core::StatusCode::kInvalidInput);
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString)
    throw_json_error("report/json", "as_string on non-string node",
                     core::StatusCode::kInvalidInput);
  return str_;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool)
    throw_json_error("report/json", "as_bool on non-boolean node",
                     core::StatusCode::kInvalidInput);
  return bool_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray || index >= items_.size())
    throw std::out_of_range("Json::at: index out of range");
  return items_[index];
}

const std::pair<std::string, Json>& Json::member(std::size_t index) const {
  if (kind_ != Kind::kObject || index >= members_.size())
    throw std::out_of_range("Json::member: index out of range");
  return members_[index];
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject)
    throw std::logic_error("Json::set on non-object");
  // Replace in place (keeping insertion order) so the writer can never
  // build — and dump() can never emit — an object with duplicate keys.
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw std::logic_error("Json::push on non-array");
  items_.push_back(std::move(value));
  return *this;
}

Json Json::parse(const std::string& text) {
  JsonReader in(text);
  Json doc = build(in);
  in.finish();
  return doc;
}

Json Json::build(JsonReader& in) {
  switch (in.peek()) {
    case JsonReader::Type::kObject: {
      Json obj = object();
      in.begin_object();
      while (in.next_member()) {
        std::string key(in.key());
        Json value = build(in);
        obj.members_.emplace_back(std::move(key), std::move(value));
      }
      return obj;
    }
    case JsonReader::Type::kArray: {
      Json arr = array();
      in.begin_array();
      while (in.next_item()) arr.items_.push_back(build(in));
      return arr;
    }
    case JsonReader::Type::kScalar:
      break;
  }
  return in.scalar();
}

void JsonReader::fail(const std::string& what) const {
  throw_json_error("report/json/parse",
                   "parse error at offset " + std::to_string(pos_) + ": " +
                       what,
                   core::StatusCode::kInvalidInput);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      ++pos_;
    else
      break;
  }
}

char JsonReader::current() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (current() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonReader::consume_literal(std::string_view literal) {
  if (text_.compare(pos_, literal.size(), literal) != 0) return false;
  pos_ += literal.size();
  return true;
}

// Strict: one document, no trailing bytes, nesting bounded so a deep
// adversarial input cannot blow the stack of a recursive caller.
JsonReader::Type JsonReader::peek() {
  if (depth_ > kMaxDepth) fail("nesting deeper than 64 levels");
  skip_ws();
  switch (current()) {
    case '{': return Type::kObject;
    case '[': return Type::kArray;
    default: return Type::kScalar;
  }
}

void JsonReader::begin_object() { open_level('{'); }

void JsonReader::begin_array() { open_level('['); }

void JsonReader::open_level(char bracket) {
  peek();
  expect(bracket);
  levels_[depth_++] = Level{key_count_, decoded_keys_.size(), true};
}

void JsonReader::close_level() {
  const Level& level = levels_[--depth_];
  key_count_ = level.key_base;
  decoded_keys_.resize(level.decoded_base);
}

bool JsonReader::next_member() {
  Level& level = levels_[depth_ - 1];
  skip_ws();
  if (level.first) {
    level.first = false;
    if (current() == '}') {
      ++pos_;
      close_level();
      return false;
    }
  } else {
    const char sep = current();
    ++pos_;
    if (sep == '}') {
      close_level();
      return false;
    }
    if (sep != ',') fail("expected ',' or '}' in object");
  }
  skip_ws();
  if (current() != '"') fail("expected member key string");
  const std::string_view key = read_key();
  skip_ws();
  expect(':');
  // RFC 8259 leaves duplicate-key semantics to the implementation; a
  // strict reader rejects them so the same document can never mean
  // first-wins here and last-wins in another consumer.
  for (std::size_t i = level.key_base; i < key_count_; ++i)
    if (keys_[i] == key)
      fail("duplicate object key '" + std::string(key) + "'");
  if (key_count_ == keys_.size()) {
    if (keys_.empty()) keys_.reserve(16);
    keys_.push_back(key);
  } else {
    keys_[key_count_] = key;
  }
  ++key_count_;
  return true;
}

bool JsonReader::next_item() {
  Level& level = levels_[depth_ - 1];
  skip_ws();
  if (level.first) {
    level.first = false;
    if (current() != ']') return true;
    ++pos_;
    close_level();
    return false;
  }
  const char sep = current();
  ++pos_;
  if (sep == ']') {
    close_level();
    return false;
  }
  if (sep != ',') fail("expected ',' or ']' in array");
  return true;
}

Json JsonReader::scalar() {
  peek();
  switch (text_[pos_]) {
    case '"': {
      std::string value;
      read_string(value);
      return Json::string(std::move(value));
    }
    case 't':
      if (!consume_literal("true")) fail("bad literal");
      return Json::boolean(true);
    case 'f':
      if (!consume_literal("false")) fail("bad literal");
      return Json::boolean(false);
    case 'n':
      if (!consume_literal("null")) fail("bad literal");
      return Json::null();
    default: return number();
  }
}

void JsonReader::skip() {
  switch (peek()) {
    case Type::kObject:
      begin_object();
      while (next_member()) skip();
      return;
    case Type::kArray:
      begin_array();
      while (next_item()) skip();
      return;
    case Type::kScalar:
      scalar();
      return;
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing bytes after document");
}

unsigned JsonReader::hex4() {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = current();
    ++pos_;
    value <<= 4;
    if (c >= '0' && c <= '9')
      value |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      value |= static_cast<unsigned>(c - 'A' + 10);
    else
      fail("bad \\u escape digit");
  }
  return value;
}

namespace {

void append_utf8(std::string& out, unsigned cp) {
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

}  // namespace

std::size_t JsonReader::plain_end(std::size_t from) const {
  while (from < text_.size()) {
    const unsigned char c = static_cast<unsigned char>(text_[from]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++from;
  }
  return from;
}

void JsonReader::read_string(std::string& out) {
  out.clear();
  expect('"');
  for (;;) {
    // Append the run of bytes that need no decoding in one piece.
    const std::size_t run = pos_;
    pos_ = plain_end(pos_);
    out.append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    ++pos_;
    if (c == '"') return;
    if (c != '\\') fail("raw control character in string");
    const char esc = current();
    ++pos_;
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
        unsigned cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00-\uDFFF.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u')
            fail("unpaired high surrogate");
          pos_ += 2;
          const unsigned lo = hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired low surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default: fail("bad escape character");
    }
  }
}

std::string_view JsonReader::read_key() {
  // Most names have no escapes: view them in place.
  const std::size_t begin = pos_ + 1;  // after the opening quote
  const std::size_t end = plain_end(begin);
  if (end < text_.size() && text_[end] == '"') {
    pos_ = end + 1;
    return text_.substr(begin, end - begin);
  }
  decoded_keys_.push_back(std::make_unique<std::string>());
  read_string(*decoded_keys_.back());
  return *decoded_keys_.back();
}

Json JsonReader::number() {
  // RFC 8259 grammar, enforced here rather than delegated to strtod:
  // int = "0" / digit1-9 *DIGIT (no leading zeros), frac/exp each require
  // at least one digit.
  const auto digit_at = [this](std::size_t p) {
    return p < text_.size() && text_[p] >= '0' && text_[p] <= '9';
  };
  const std::size_t start = pos_;
  bool integral = true;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  if (!digit_at(pos_)) fail("bad number");
  if (text_[pos_] == '0') {
    ++pos_;
    if (digit_at(pos_)) fail("leading zero in number");
  } else {
    while (digit_at(pos_)) ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    if (!digit_at(pos_)) fail("expected digit after decimal point");
    while (digit_at(pos_)) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (!digit_at(pos_)) fail("expected digit in exponent");
    while (digit_at(pos_)) ++pos_;
  }
  // strtoll/strtod need the token NUL-terminated on its own: the bytes
  // after it ("0x1F") must not extend what they read.
  const std::string_view token = text_.substr(start, pos_ - start);
  char small[32];
  std::string large;
  const char* digits = small;
  if (token.size() < sizeof small) {
    token.copy(small, token.size());
    small[token.size()] = '\0';
  } else {
    large = token;
    digits = large.c_str();
  }
  char* end = nullptr;
  if (integral) {
    errno = 0;
    const long long v = std::strtoll(digits, &end, 10);
    // On overflow strtoll still consumes the token and clamps to
    // LLONG_MIN/MAX with errno == ERANGE; that literal is not
    // representable as long long, so fall through to double.
    if (errno != ERANGE && end != nullptr && *end == '\0')
      return Json::integer(v);
  }
  end = nullptr;
  const double v = std::strtod(digits, &end);
  if (end == nullptr || *end != '\0')
    fail("bad number '" + std::string(token) + "'");
  if (!std::isfinite(v)) fail("number overflows to non-finite");
  return Json::number(v);
}

void Json::write_to(JsonWriter& writer) const {
  switch (kind_) {
    case Kind::kString:
      writer.string(str_);
      break;
    case Kind::kNumber:
      writer.number(num_);
      break;
    case Kind::kInteger:
      writer.integer(int_);
      break;
    case Kind::kBool:
      writer.boolean(bool_);
      break;
    case Kind::kNull:
      writer.null();
      break;
    case Kind::kObject:
      writer.begin_object();
      for (const auto& [k, v] : members_) {
        writer.key(k);
        v.write_to(writer);
      }
      writer.end_object();
      break;
    case Kind::kArray:
      writer.begin_array();
      for (const auto& v : items_) {
        writer.item();
        v.write_to(writer);
      }
      writer.end_array();
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  write_to(writer);
  return out;
}

JsonWriter& JsonWriter::enter(char bracket) {
  out_ += bracket;
  ++depth_;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::leave(char bracket) {
  --depth_;
  if (!first_) newline();  // "{}" and "[]" stay on one line
  out_ += bracket;
  first_ = false;  // the parent now holds this container
  return *this;
}

void JsonWriter::newline() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth_, ' ');
}

JsonWriter& JsonWriter::key(std::string_view name) {
  item();
  string(name);
  if (indent_ < 0)
    out_ += ':';
  else
    out_.append(": ", 2);
  return *this;
}

JsonWriter& JsonWriter::item() {
  if (!first_) out_ += ',';
  first_ = false;
  newline();
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  // Append clean runs whole; only quotes, backslashes and control bytes
  // are rewritten (bytes >= 0x20, UTF-8 included, pass through).
  std::size_t run = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(value.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_.append("\\\"", 2); break;
      case '\\': out_.append("\\\\", 2); break;
      case '\n': out_.append("\\n", 2); break;
      case '\t': out_.append("\\t", 2); break;
      case '\r': out_.append("\\r", 2); break;
      default: {
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out_.append(escape, sizeof escape);
      }
    }
  }
  out_.append(value.data() + run, value.size() - run);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  require_finite(value);
  char buf[kG10Bytes];
  out_.append(buf, format_g10(value, buf));
  return *this;
}

JsonWriter& JsonWriter::number_or_null(double value) {
  return std::isfinite(value) ? number(value) : null();
}

JsonWriter& JsonWriter::integer(long long value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  if (value)
    out_.append("true", 4);
  else
    out_.append("false", 5);
  return *this;
}

JsonWriter& JsonWriter::null() {
  out_.append("null", 4);
  return *this;
}

JsonWriter& JsonWriter::value(const Json& tree) {
  tree.write_to(*this);
  return *this;
}

}  // namespace dsmt::report
