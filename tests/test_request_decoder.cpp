// Differential test of the tree-free request decoder against the tree-based
// codec it replaced.
//
// `reference` below is the earlier code, copied verbatim: the recursive
// descent Parser behind Json::parse, request_from_json with its helpers,
// parse_batch, and net::Server::dispatch_frame's classification of one
// payload (malformed, ping, invalid, request). Every input must give the
// same result on both sides: the same Request (every field bitwise), a ping
// with the same id, or the same status, what() and best-effort id. Inputs
// are generated valid requests, every error class, and seeded splitmix64
// mutations of the valid set; batches are checked in both forms, with
// errors in several elements and syntax errors after them. Json::parse,
// which now builds its tree from the same reader, is checked against the
// reference Parser on every input too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/status.h"
#include "report/json.h"
#include "service/request.h"

namespace dsmt {
namespace {

using report::Json;
using service::Request;
using service::RequestKind;

// ---- reference: the tree-based codec, verbatim ---------------------------

namespace reference {

[[noreturn]] void throw_json_error(const char* kernel, const std::string& what,
                                   core::StatusCode status) {
  core::SolverDiag diag;
  diag.record(kernel, status, 0, 0.0, what);
  throw SolveError("report/json: " + what, diag);
}

/// Recursive-descent JSON parser. Strict: one document, no trailing bytes,
/// nesting bounded so a deep adversarial input cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw_json_error("report/json/parse",
                     "parse error at offset " + std::to_string(pos_) + ": " +
                         what,
                     core::StatusCode::kInvalidInput);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::null();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected member key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // RFC 8259 leaves duplicate-key semantics to the implementation; a
      // strict parser rejects them so the same document can never mean
      // first-wins here and last-wins in another consumer.
      if (obj.find(key) != nullptr)
        fail("duplicate object key '" + key + "'");
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return obj;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return arr;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
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

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
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
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired high surrogate");
            pos_ += 2;
            const unsigned lo = parse_hex4();
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

  bool digit_at(std::size_t p) const {
    return p < text_.size() && text_[p] >= '0' && text_[p] <= '9';
  }

  Json parse_number() {
    // RFC 8259 grammar, enforced here rather than delegated to strtod:
    // int = "0" / digit1-9 *DIGIT (no leading zeros), frac/exp each require
    // at least one digit.
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
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      // On overflow strtoll still consumes the token and clamps to
      // LLONG_MIN/MAX with errno == ERANGE; that literal is not
      // representable as long long, so fall through to double.
      if (errno != ERANGE && end != nullptr && *end == '\0')
        return Json::integer(v);
    }
    end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    if (!std::isfinite(v)) fail("number overflows to non-finite");
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json parse(const std::string& text) { return Parser(text).parse_document(); }

[[noreturn]] void bad_request(const std::string& what) {
  core::SolverDiag diag;
  diag.record("service/request", core::StatusCode::kInvalidInput, 0, 0.0,
              what);
  throw SolveError("service/request: " + what, diag);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double get_number(const report::Json& node, const char* key, double fallback) {
  const report::Json* member = node.find(key);
  return member != nullptr ? member->as_number() : fallback;
}

std::string get_string(const report::Json& node, const char* key,
                       std::string fallback) {
  const report::Json* member = node.find(key);
  return member != nullptr ? member->as_string() : fallback;
}

/// Integral member, validated before the narrowing cast: a client-supplied
/// {"level": 1e300} or NaN must classify as bad_request, never reach a
/// double->int conversion whose behavior is undefined out of range.
int get_int(const report::Json& node, const char* key, int fallback) {
  const report::Json* member = node.find(key);
  if (member == nullptr) return fallback;
  const double v = member->as_number();
  if (v != std::floor(v) || !(std::abs(v) <= 2147483647.0))
    bad_request(std::string("'") + key +
                "' must be an integral number within int range");
  return static_cast<int>(v);
}

/// Rejects any member of the object `node` not named in `known`: a
/// misspelled field must not silently answer a different question.
void reject_unknown_members(const report::Json& node, const char* what,
                            std::initializer_list<const char*> known) {
  for (std::size_t i = 0; i < node.size(); ++i) {
    const std::string& key = node.member(i).first;
    if (std::none_of(known.begin(), known.end(),
                     [&key](const char* name) { return key == name; }))
      bad_request(std::string("unknown ") + what + " field '" + key + "'");
  }
}

RequestKind kind_from_name(const std::string& name) {
  const std::string k = lower(name);
  if (k == "self-consistent" || k == "sc") return RequestKind::kSelfConsistent;
  if (k == "duty-cycle-point" || k == "duty")
    return RequestKind::kDutyCyclePoint;
  if (k == "table-cell" || k == "table") return RequestKind::kTableCell;
  bad_request("unknown request kind '" + name + "'");
}

Request request_from_json(const report::Json& node) {
  if (!node.is_object()) bad_request("request is not a JSON object");
  reject_unknown_members(node, "request",
                         {"id", "kind", "duty_cycle", "j0_MA_cm2", "t_ref_c",
                          "wire", "technology", "level", "dielectric"});
  Request r;
  r.id = get_string(node, "id", "");
  r.kind = kind_from_name(get_string(node, "kind", "self-consistent"));
  r.duty_cycle = get_number(node, "duty_cycle", r.duty_cycle);
  r.j0_MA_cm2 = get_number(node, "j0_MA_cm2", r.j0_MA_cm2);
  r.t_ref_c = get_number(node, "t_ref_c", r.t_ref_c);
  if (const report::Json* wire = node.find("wire")) {
    if (!wire->is_object()) bad_request("'wire' is not a JSON object");
    reject_unknown_members(*wire, "wire",
                           {"metal", "width_um", "thickness_um",
                            "dielectric_um", "k_dielectric"});
    r.wire.metal = get_string(*wire, "metal", r.wire.metal);
    r.wire.width_um = get_number(*wire, "width_um", r.wire.width_um);
    r.wire.thickness_um =
        get_number(*wire, "thickness_um", r.wire.thickness_um);
    r.wire.dielectric_um =
        get_number(*wire, "dielectric_um", r.wire.dielectric_um);
    r.wire.k_dielectric =
        get_number(*wire, "k_dielectric", r.wire.k_dielectric);
  }
  r.technology = get_string(node, "technology", r.technology);
  r.level = get_int(node, "level", r.level);
  r.dielectric = get_string(node, "dielectric", r.dielectric);
  if (r.kind == RequestKind::kTableCell && r.technology.empty())
    bad_request("table-cell request without 'technology'");
  return r;
}

std::vector<Request> parse_batch(const std::string& text) {
  const report::Json doc = reference::parse(text);
  const report::Json* list = nullptr;
  if (doc.is_array()) {
    list = &doc;
  } else if (doc.is_object()) {
    list = doc.find("requests");
    if (list == nullptr || !list->is_array())
      bad_request("batch object lacks a 'requests' array");
  } else {
    bad_request("batch document is neither an array nor an object");
  }
  std::vector<Request> requests;
  requests.reserve(list->size());
  for (std::size_t i = 0; i < list->size(); ++i)
    requests.push_back(request_from_json(list->at(i)));
  return requests;
}

/// The request id of a parsed-but-possibly-malformed payload, best effort.
std::string probe_id(const report::Json& doc) {
  const report::Json* id = doc.find("id");
  return (id != nullptr && id->is_string()) ? id->as_string() : std::string{};
}

}  // namespace reference

// ---- comparison ----------------------------------------------------------

/// What net::Server::dispatch_frame makes of one payload.
struct Outcome {
  enum class Kind { kRequest, kPing, kMalformed, kInvalid, kOther };
  Kind kind = Kind::kRequest;
  Request request;             ///< kRequest
  std::string id;              ///< best-effort id (kPing, kInvalid, kOther)
  core::StatusCode status = core::StatusCode::kOk;
  std::string what;            ///< kMalformed, kInvalid, kOther
};

Outcome reference_outcome(const std::string& payload) {
  Outcome out;
  Json doc;
  try {
    doc = reference::parse(payload);
  } catch (const SolveError& e) {
    out.kind = Outcome::Kind::kMalformed;
    out.status = e.status();
    out.what = e.what();
    return out;
  }
  const Json* kind = doc.find("kind");
  if (kind != nullptr && kind->is_string() && kind->as_string() == "ping") {
    out.kind = Outcome::Kind::kPing;
    out.id = reference::probe_id(doc);
    return out;
  }
  try {
    out.request = reference::request_from_json(doc);
  } catch (const SolveError& e) {
    out.kind = Outcome::Kind::kInvalid;
    out.id = reference::probe_id(doc);
    out.status = e.status();
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = Outcome::Kind::kOther;
    out.id = reference::probe_id(doc);
    out.what = e.what();
  }
  return out;
}

Outcome decoder_outcome(const std::string& payload) {
  Outcome out;
  service::RequestDocument doc;
  try {
    doc = service::RequestDocument::parse(payload);
  } catch (const SolveError& e) {
    out.kind = Outcome::Kind::kMalformed;
    out.status = e.status();
    out.what = e.what();
    return out;
  }
  if (doc.is_ping()) {
    out.kind = Outcome::Kind::kPing;
    out.id = doc.id();
    return out;
  }
  try {
    out.request = doc.decode();
  } catch (const SolveError& e) {
    out.kind = Outcome::Kind::kInvalid;
    out.id = doc.id();
    out.status = e.status();
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = Outcome::Kind::kOther;
    out.id = doc.id();
    out.what = e.what();
  }
  return out;
}

bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

::testing::AssertionResult same_request(const Request& a, const Request& b) {
  if (a.id == b.id && a.kind == b.kind && same_bits(a.duty_cycle, b.duty_cycle) &&
      same_bits(a.j0_MA_cm2, b.j0_MA_cm2) && same_bits(a.t_ref_c, b.t_ref_c) &&
      a.wire.metal == b.wire.metal &&
      same_bits(a.wire.width_um, b.wire.width_um) &&
      same_bits(a.wire.thickness_um, b.wire.thickness_um) &&
      same_bits(a.wire.dielectric_um, b.wire.dielectric_um) &&
      same_bits(a.wire.k_dielectric, b.wire.k_dielectric) &&
      a.technology == b.technology && a.level == b.level &&
      a.dielectric == b.dielectric)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "requests differ: " << service::request_to_json(a).dump(-1)
         << " vs " << service::request_to_json(b).dump(-1);
}

/// Both sides' outcomes for `payload` agree; `kind` receives the decoder's.
::testing::AssertionResult same_outcome(const std::string& payload,
                                        Outcome::Kind* kind = nullptr) {
  const Outcome want = reference_outcome(payload);
  const Outcome got = decoder_outcome(payload);
  if (kind != nullptr) *kind = got.kind;
  auto fail = [&]() {
    return ::testing::AssertionFailure()
           << "payload: " << payload << "\nreference kind "
           << static_cast<int>(want.kind) << " id '" << want.id << "' what '"
           << want.what << "'\ndecoder   kind " << static_cast<int>(got.kind)
           << " id '" << got.id << "' what '" << got.what << "'";
  };
  if (want.kind != got.kind || want.id != got.id ||
      want.status != got.status || want.what != got.what)
    return fail();
  if (want.kind == Outcome::Kind::kRequest) {
    ::testing::AssertionResult same = same_request(want.request, got.request);
    if (!same) return same << "\npayload: " << payload;
  }
  return ::testing::AssertionSuccess();
}

/// Json trees equal in shape, text and number bits.
bool same_tree(const Json& a, const Json& b) {
  if (a.dump(-1) != b.dump(-1) || a.is_object() != b.is_object() ||
      a.is_array() != b.is_array() || a.is_number() != b.is_number())
    return false;
  if (a.is_number()) return same_bits(a.as_number(), b.as_number());
  if (a.is_array() || a.is_object()) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.is_array() ? !same_tree(a.at(i), b.at(i))
                       : a.member(i).first != b.member(i).first ||
                             !same_tree(a.member(i).second, b.member(i).second))
        return false;
    }
  }
  return true;
}

::testing::AssertionResult same_parse(const std::string& text) {
  std::optional<Json> want;
  std::optional<Json> got;
  std::string want_error;
  std::string got_error;
  try {
    want = reference::parse(text);
  } catch (const SolveError& e) {
    want_error = e.what();
  }
  try {
    got = Json::parse(text);
  } catch (const SolveError& e) {
    got_error = e.what();
  }
  if (want_error != got_error || want.has_value() != got.has_value() ||
      (want && !same_tree(*want, *got)))
    return ::testing::AssertionFailure()
           << "Json::parse differs on: " << text << "\nreference: "
           << want_error << "\nreader:    " << got_error;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_batch(const std::string& text) {
  std::vector<Request> want;
  std::vector<Request> got;
  std::string want_error = "<none>";
  std::string got_error = "<none>";
  core::StatusCode want_status = core::StatusCode::kOk;
  core::StatusCode got_status = core::StatusCode::kOk;
  try {
    want = reference::parse_batch(text);
  } catch (const SolveError& e) {
    want_error = e.what();
    want_status = e.status();
  }
  try {
    got = service::parse_batch(text);
  } catch (const SolveError& e) {
    got_error = e.what();
    got_status = e.status();
  }
  if (want_error != got_error || want_status != got_status ||
      want.size() != got.size())
    return ::testing::AssertionFailure()
           << "batch: " << text << "\nreference: " << want_error
           << "\ndecoder:   " << got_error;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ::testing::AssertionResult same = same_request(want[i], got[i]);
    if (!same) return same << "\nbatch element " << i << ": " << text;
  }
  return ::testing::AssertionSuccess();
}

// ---- generated inputs ----------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(int percent) { return below(100) < static_cast<std::size_t>(percent); }
  template <typename T, std::size_t N>
  const T& pick(const T (&items)[N]) {
    return items[below(N)];
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::string whitespace(Rng& rng) {
  static const char* const kSpace[] = {"", "", "", "", " ", "\n", "\t",
                                       "\r\n  ", "  "};
  return rng.pick(kSpace);
}

std::string mixed_case(Rng& rng, std::string s) {
  for (char& c : s)
    if (std::isalpha(static_cast<unsigned char>(c)) && rng.chance(30))
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// A JSON string literal of plain ASCII `s`, some bytes written as \u
/// escapes (either hex case), so names and values reach the decoder in
/// every spelling the grammar allows.
std::string quoted(Rng& rng, const std::string& s) {
  static const char kHexLower[] = "0123456789abcdef";
  static const char kHexUpper[] = "0123456789ABCDEF";
  std::string out = "\"";
  for (const char c : s) {
    if (rng.chance(8)) {
      const char* hex = rng.chance(50) ? kHexLower : kHexUpper;
      const unsigned u = static_cast<unsigned char>(c);
      out += "\\u00";
      out += hex[u >> 4];
      out += hex[u & 0xF];
    } else if (c == '/' && rng.chance(50)) {
      out += "\\/";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An id built from JSON-escaped pieces: quotes, backslashes, control
/// escapes, raw UTF-8 and \u surrogate pairs.
std::string id_text(Rng& rng) {
  static const char* const kPieces[] = {
      "a",       "Z",           "7",           "-",        "_",
      " ",       "\\\"",        "\\\\",        "\\/",      "\\n",
      "\\t",     "\\r",         "\\b",         "\\f",      "\\u0041",
      "\\u00e9", "\\u00E9",     "\xc3\xa9",    "\\u20ac",  "\xe2\x82\xac",
      "\\ud83d\\udca1",         "\\uD83D\\uDE00",          "\xf0\x9f\x92\xa1",
      "poison",  "t-000123"};
  std::string out = "\"";
  const std::size_t n = rng.below(6);
  for (std::size_t i = 0; i < n; ++i) out += rng.pick(kPieces);
  return out + "\"";
}

/// A number in one of the spellings the codec must convert exactly.
std::string number_text(Rng& rng) {
  char buf[64];
  switch (rng.below(13)) {
    case 0: return std::to_string(rng.below(1000));
    case 1: return "-" + std::to_string(1 + rng.below(1000));
    case 2:
      std::snprintf(buf, sizeof buf, "%zu.%zu", rng.below(100),
                    rng.below(100000));
      return buf;
    case 3: {
      static const char* const kExp[] = {"6e-1", "1.8E+0", "25e-2", "1e0",
                                         "2.5e2", "3E1",    "7.25e-03",
                                         "1e-05", "0e0",    "5E-0"};
      return rng.pick(kExp);
    }
    case 4:
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::pow(10.0, -3.0 + 6.0 * rng.unit()));
      return buf;
    case 5: {
      static const char* const kZero[] = {"-0", "0", "-0.0", "0.0", "-0e0",
                                          "-0E-5"};
      return rng.pick(kZero);
    }
    case 6: {
      static const char* const kBig[] = {
          "9007199254740993", "-9007199254740993", "18014398509481985",
          "9007199254740992", "9223372036854775807", "-9223372036854775808"};
      return rng.pick(kBig);
    }
    case 7: {
      static const char* const kHuge[] = {
          "9223372036854775808", "-9223372036854775809",
          "18446744073709551616", "123456789012345678901234567890",
          "-92233720368547758080"};
      return rng.pick(kHuge);
    }
    case 8: {
      static const char* const kTiny[] = {"1e-400", "-2.5e-330", "4.9e-324",
                                          "2.2250738585072014e-308"};
      return rng.pick(kTiny);
    }
    case 9: {
      static const char* const kLarge[] = {"1e308", "1.7976931348623157e308",
                                           "-1.7976931348623157E+308"};
      return rng.pick(kLarge);
    }
    case 10:
      std::snprintf(buf, sizeof buf, "%.10g", 0.2 + 2.8 * rng.unit());
      return buf;
    case 11: {
      static const char* const kRound[] = {"0.1", "0.2", "0.30000000000000004",
                                           "0.6", "1.8", "100", "85.0"};
      return rng.pick(kRound);
    }
    default:
      std::snprintf(buf, sizeof buf, "%.17g", rng.unit());
      return buf;
  }
}

std::string level_text(Rng& rng) {
  static const char* const kLevel[] = {"1",   "2",   "3",   "4",   "5",
                                       "6",   "7",   "8",   "3.0", "2e0",
                                       "-0",  "0",   "-1",  "2147483647",
                                       "1e1", "4E0", "0.5e1"};
  return rng.pick(kLevel);
}

/// `{...}` from member texts in a random order, with random whitespace.
std::string object_text(Rng& rng, std::vector<std::string> members) {
  for (std::size_t i = members.size(); i > 1; --i)
    std::swap(members[i - 1], members[rng.below(i)]);
  std::string out = whitespace(rng) + "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ",";
    out += members[i];
  }
  return out + whitespace(rng) + "}" + whitespace(rng);
}

std::string member(Rng& rng, const std::string& name,
                   const std::string& value) {
  return whitespace(rng) + quoted(rng, name) + whitespace(rng) + ":" +
         whitespace(rng) + value + whitespace(rng);
}

/// A valid request: every kind and alias, both metals, the six NTRS
/// technologies, the three gap fills, every number spelling.
std::string valid_request(Rng& rng) {
  static const char* const kKinds[] = {"self-consistent", "sc",
                                       "duty-cycle-point", "duty",
                                       "table-cell",       "table"};
  static const char* const kTechnologies[] = {
      "NTRS-250nm-Cu",   "NTRS-180nm-Cu", "NTRS-130nm-Cu",
      "NTRS-100nm-Cu",   "NTRS-250nm-AlCu", "NTRS-100nm-AlCu",
      "250nm_alcu",      "ntrs100cu"};
  static const char* const kGapFills[] = {"oxide", "hsq", "polyimide"};
  static const char* const kMetals[] = {"cu", "alcu"};
  std::vector<std::string> members;
  if (rng.chance(80)) members.push_back(member(rng, "id", id_text(rng)));
  const std::size_t kind = rng.below(std::size(kKinds) + 1);
  const bool table = kind == 4 || kind == 5;
  if (kind < std::size(kKinds))
    members.push_back(
        member(rng, "kind", quoted(rng, mixed_case(rng, kKinds[kind]))));
  for (const char* name : {"duty_cycle", "j0_MA_cm2", "t_ref_c"})
    if (rng.chance(70)) members.push_back(member(rng, name, number_text(rng)));
  if (table || rng.chance(10)) {
    members.push_back(member(
        rng, "technology", quoted(rng, mixed_case(rng, rng.pick(kTechnologies)))));
    if (rng.chance(80))
      members.push_back(member(rng, "level", level_text(rng)));
    if (rng.chance(80))
      members.push_back(member(
          rng, "dielectric", quoted(rng, mixed_case(rng, rng.pick(kGapFills)))));
  }
  if (!table && rng.chance(80)) {
    std::vector<std::string> wire;
    if (rng.chance(80))
      wire.push_back(member(rng, "metal",
                            quoted(rng, mixed_case(rng, rng.pick(kMetals)))));
    for (const char* name :
         {"width_um", "thickness_um", "dielectric_um", "k_dielectric"})
      if (rng.chance(75)) wire.push_back(member(rng, name, number_text(rng)));
    members.push_back(member(rng, "wire", object_text(rng, wire)));
  }
  return object_text(rng, members);
}

/// One syntax error per parse-error text, and every request error class.
std::vector<std::string> error_inputs() {
  std::vector<std::string> inputs = {
      // Each parse-error text.
      "", "   ", "{", "{\"id\"", "{\"id\":", "{\"id\" 1}", "{\"id\":\"a\"",
      "{\"id\":\"a\" \"kind\":\"sc\"}", "{1:2}", "{\"id\":\"a\",}",
      "[1 2]", "[1,]", "[", "tru", "nul", "fals", "{\"a\":tru}",
      "{\"id\":\"\\x\"}", "{\"id\":\"\\u12G4\"}", "{\"id\":\"\\u12\"}",
      "{\"id\":\"\\ud83d\"}", "{\"id\":\"\\ud83d\\u0041\"}",
      "{\"id\":\"\\ud83dx\"}", "{\"id\":\"\\udca1\"}", "{\"id\":\"abc",
      "{\"id\":\"a\nb\"}", "{\"id\":\"a\x01\"}", "{\"level\":-}",
      "{\"level\":01}", "{\"level\":1.}", "{\"level\":1.e5}", "{\"level\":1e}",
      "{\"level\":1e+}", "{\"level\":.5}", "{\"level\":+1}",
      "{\"level\":1e999}", "{\"level\":-1e999}", "{\"level\":0x1F}",
      "{\"level\":Infinity}", "{\"level\":NaN}", "{} x", "{}}", "[] []",
      "{\"id\":\"a\"}\x01", "\xef\xbb\xbf{}",
      // Duplicate keys at every depth, escaped spellings included.
      "{\"id\":\"a\",\"id\":\"b\"}", "{\"id\":\"a\",\"\\u0069d\":\"b\"}",
      "{\"wire\":{\"metal\":\"cu\",\"metal\":\"al\"}}",
      "{\"x\":{\"a\":1,\"a\":2}}", "{\"x\":[{\"a\":1,\"a\":2}]}",
      "{\"kind\":\"ping\",\"id\":\"x\",\"id\":\"y\"}",
      "{\"wire\":{\"z\":{\"q\":{\"a\":[],\"a\":{}}}}}",
      // Non-object requests.
      "[1]", "[]", "\"str\"", "5", "null", "true", "false", "-0",
      // Unknown request and wire members.
      "{\"duty\":0.5}", "{\"id\":\"u\",\"dutycycle\":0.2,\"kind\":\"warp\"}",
      "{\"\":1}", "{\"wire\":{\"width\":0.3}}",
      "{\"id\":5,\"wire\":{\"width\":0.3}}",
      "{\"wire\":{\"width\":0.3},\"bogus\":1}",
      // Each wrong member type.
      "{\"id\":5}", "{\"id\":null}", "{\"id\":[\"a\"]}", "{\"kind\":1}",
      "{\"kind\":true}", "{\"kind\":[1]}", "{\"kind\":{}}",
      "{\"duty_cycle\":\"0.1\"}", "{\"duty_cycle\":null}",
      "{\"j0_MA_cm2\":{}}", "{\"t_ref_c\":true}", "{\"t_ref_c\":[1]}",
      "{\"wire\":3}", "{\"wire\":[]}", "{\"wire\":\"cu\"}", "{\"wire\":null}",
      "{\"wire\":{\"metal\":5}}", "{\"wire\":{\"width_um\":\"1\"}}",
      "{\"wire\":{\"k_dielectric\":{}}}", "{\"technology\":7}",
      "{\"level\":\"1\"}", "{\"level\":true}", "{\"level\":[1]}",
      "{\"dielectric\":1}", "{\"id\":7,\"kind\":\"warp\"}",
      // An unknown kind.
      "{\"kind\":\"warp-drive\"}", "{\"id\":\"k\",\"kind\":\"PING\"}",
      "{\"kind\":\"\"}",
      // Non-integral and out-of-range levels.
      "{\"kind\":\"table\",\"technology\":\"NTRS-250nm-Cu\",\"level\":2.5}",
      "{\"kind\":\"table\",\"technology\":\"NTRS-250nm-Cu\",\"level\":1e300}",
      "{\"kind\":\"table\",\"technology\":\"NTRS-250nm-Cu\",\"level\":-3e9}",
      "{\"level\":2147483648}", "{\"level\":-2147483648}",
      "{\"level\":-2147483647}", "{\"level\":9223372036854775808}",
      // A table cell without a technology.
      "{\"kind\":\"table\"}", "{\"kind\":\"Table-Cell\",\"technology\":\"\"}",
      "{\"id\":\"t\",\"kind\":\"table\",\"level\":3}",
      // A field error followed by a later syntax error: the syntax wins.
      "{\"id\":5,\"kind\":tru}", "{\"wire\":3,\"x\":[1,}",
      "{\"duty\":1,\"id\":\"a\",\"id\":\"b\"}", "{\"kind\":\"warp\"} }",
      "{\"kind\":\"ping\",\"x\":[1,}",
      // Pings, with every id shape.
      "{\"kind\":\"ping\"}", "{\"kind\":\"ping\",\"id\":\"p-1\"}",
      "{\"id\":5,\"kind\":\"ping\"}", "{\"kind\":\"ping\",\"zzz\":[1,{}]}",
      "{\"kind\":\"p\\u0069ng\",\"id\":\"\\ud83d\\udca1\"}",
      "{\"kind\":\"ping\",\"id\":\"x\",\"level\":2.5}",
      "[{\"kind\":\"ping\"}]"};
  // Depth 64 against 65, in every position a value can take.
  for (int depth = 60; depth <= 68; ++depth) {
    const std::string open(static_cast<std::size_t>(depth), '[');
    const std::string close(static_cast<std::size_t>(depth), ']');
    inputs.push_back(open + close);
    inputs.push_back(open + "1" + close);
    inputs.push_back("{\"x\":" + open + close + "}");
    inputs.push_back("{\"wire\":{\"q\":" + open + "{}" + close + "}}");
    std::string objects;
    for (int i = 0; i < depth; ++i) objects += "{\"a\":";
    objects += "1" + std::string(static_cast<std::size_t>(depth), '}');
    inputs.push_back(objects);
  }
  return inputs;
}

/// One seeded mutation of `text`: flip, insert, delete, duplicate a member,
/// or splice in a piece of `other`.
std::string mutate(Rng& rng, std::string text, const std::string& other) {
  static const char kBytes[] = "{}[]\",:\\ -+.0123456789eEtrufalsn\x01\x7f\xff";
  const std::size_t ops = 1 + rng.below(3);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t at = text.empty() ? 0 : rng.below(text.size() + 1);
    switch (rng.below(5)) {
      case 0:  // flip
        if (!text.empty()) {
          const std::size_t i = rng.below(text.size());
          text[i] = rng.chance(50)
                        ? kBytes[rng.below(sizeof kBytes - 1)]
                        : static_cast<char>(text[i] ^ (1u << rng.below(8)));
        }
        break;
      case 1:  // insert
        text.insert(at, 1, kBytes[rng.below(sizeof kBytes - 1)]);
        break;
      case 2:  // delete
        if (!text.empty())
          text.erase(rng.below(text.size()), 1 + rng.below(4));
        break;
      case 3: {  // duplicate a member: copy `"name": value,` after a brace
        const std::size_t open = text.find('{', at);
        const std::size_t quote =
            open == std::string::npos ? open : text.find('"', open);
        const std::size_t comma =
            quote == std::string::npos ? quote : text.find_first_of(",}", quote);
        if (comma != std::string::npos)
          text.insert(open + 1, text.substr(quote, comma - quote) + ",");
        break;
      }
      default: {  // splice
        if (other.empty()) break;
        const std::size_t from = rng.below(other.size());
        text.insert(at, other.substr(from, 1 + rng.below(24)));
        break;
      }
    }
  }
  return text;
}

std::vector<std::string> valid_inputs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(valid_request(rng));
  return out;
}

// ---- tests ---------------------------------------------------------------

TEST(RequestDecoder, ErrorInputsCoverEveryParseErrorText) {
  // The hand-written error list reaches each message the grammar has.
  const char* const kTexts[] = {
      "unexpected end of input",     "expected ':'",
      "bad literal",                 "expected member key string",
      "duplicate object key",        "expected ',' or '}' in object",
      "expected ',' or ']' in array", "bad \\u escape digit",
      "unpaired high surrogate",     "bad low surrogate",
      "unpaired low surrogate",      "bad escape character",
      "unterminated string",         "raw control character in string",
      "bad number",                  "leading zero in number",
      "expected digit after decimal point", "expected digit in exponent",
      "number overflows to non-finite", "nesting deeper than 64 levels",
      "trailing bytes after document"};
  const std::vector<std::string> inputs = error_inputs();
  for (const char* text : kTexts) {
    const bool reached =
        std::any_of(inputs.begin(), inputs.end(), [&](const std::string& in) {
          const Outcome o = reference_outcome(in);
          return o.kind == Outcome::Kind::kMalformed &&
                 o.what.find(text) != std::string::npos;
        });
    EXPECT_TRUE(reached) << "no input reaches '" << text << "'";
  }
  // ... and the depth bound is crossed, not just approached.
  bool deep_ok = false;
  bool deep_fails = false;
  for (const std::string& in : inputs) {
    if (in.rfind("[[[[[[", 0) != 0) continue;
    const Outcome o = reference_outcome(in);
    (o.what.find("nesting") == std::string::npos ? deep_ok : deep_fails) = true;
  }
  EXPECT_TRUE(deep_ok);
  EXPECT_TRUE(deep_fails);
}

TEST(RequestDecoder, EveryErrorClassMatchesTheTreeCodec) {
  for (const std::string& input : error_inputs()) {
    EXPECT_TRUE(same_outcome(input));
    EXPECT_TRUE(same_parse(input));
  }
}

TEST(RequestDecoder, GeneratedValidRequestsDecodeBitForBit) {
  std::size_t decoded = 0;
  for (const std::string& input : valid_inputs(29, 4000)) {
    Outcome::Kind kind{};
    ASSERT_TRUE(same_outcome(input, &kind));
    ASSERT_TRUE(same_parse(input));
    if (kind == Outcome::Kind::kRequest) ++decoded;
  }
  // Most generated requests decode; the rest fail their field checks
  // (out-of-range levels, levels below one are still requests).
  EXPECT_GT(decoded, 3000u);
}

// 100,000 seeded mutations in four shards of 25,000, so ctest runs them in
// parallel and each stays a few seconds under the sanitizers.
class RequestDecoderMutations : public ::testing::TestWithParam<int> {};

TEST_P(RequestDecoderMutations, ClassifyLikeTheTreeCodec) {
  const std::vector<std::string> valid = valid_inputs(2029, 512);
  Rng rng(0x5eed29 + static_cast<std::uint64_t>(GetParam()));
  std::size_t kinds[5] = {};
  for (std::size_t i = 0; i < 25000; ++i) {
    const std::string input = mutate(rng, valid[rng.below(valid.size())],
                                     valid[rng.below(valid.size())]);
    Outcome::Kind kind{};
    ASSERT_TRUE(same_outcome(input, &kind)) << "mutation " << i;
    ++kinds[static_cast<int>(kind)];
    if (i % 16 == 0) {
      ASSERT_TRUE(same_parse(input)) << "mutation " << i;
    }
  }
  // The campaign reaches both sides of the grammar and of the checks.
  EXPECT_GT(kinds[static_cast<int>(Outcome::Kind::kRequest)], 250u);
  EXPECT_GT(kinds[static_cast<int>(Outcome::Kind::kMalformed)], 2500u);
  EXPECT_GT(kinds[static_cast<int>(Outcome::Kind::kInvalid)], 250u);
}

INSTANTIATE_TEST_SUITE_P(Shards, RequestDecoderMutations,
                         ::testing::Range(0, 4));

TEST(RequestDecoder, BatchesDecodeLikeTheTreeCodecInBothForms) {
  const std::vector<std::string> valid = valid_inputs(7, 256);
  const std::vector<std::string> errors = error_inputs();
  Rng rng(0xba7c4);
  const auto element = [&]() -> std::string {
    const std::size_t roll = rng.below(100);
    if (roll < 70) return valid[rng.below(valid.size())];
    if (roll < 85) return errors[rng.below(errors.size())];
    return mutate(rng, valid[rng.below(valid.size())],
                  valid[rng.below(valid.size())]);
  };
  const auto both_forms = [&](const std::string& list) {
    EXPECT_TRUE(same_batch("[" + list + "]"));
    EXPECT_TRUE(same_batch(whitespace(rng) + "{\"requests\":[" + list + "]}"));
    EXPECT_TRUE(same_batch("{\"before\":{\"a\":[1]},\"requests\":[" + list +
                           "],\"after\":null}"));
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::string list;
    const std::size_t n = rng.below(7);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) list += ",";
      list += element();
    }
    both_forms(list);
  }
  // Errors in several elements, then a syntax error after them: the
  // syntax error wins; without it the first failing element does.
  const std::string fields = valid[0] + ",{\"kind\":\"warp\"}," + valid[1] +
                             ",{\"level\":2.5},{\"wire\":3}";
  both_forms(fields);
  both_forms(fields + ",tru");
  both_forms(fields + ",{\"id\":\"a\",\"id\":\"b\"}");
  both_forms(fields + "," + valid[2] + ",[1,]");
  EXPECT_TRUE(same_batch("[" + fields + "] x"));
  // Shapes: neither form, a missing or non-array "requests", duplicates.
  for (const char* shape :
       {"42", "\"x\"", "null", "{}", "{\"no_requests\":[]}",
        "{\"requests\":5}", "{\"requests\":{}}", "{\"requests\":[]}",
        "{\"requests\":[],\"requests\":[]}", "{\"requests\":[{}],\"x\":[1,}",
        "{\"requests\":5,\"x\":tru}", "[]", "[{}, {}]", "", "[", "{\"requests\":["})
    EXPECT_TRUE(same_batch(shape));
  // The perf table's shape: one request_to_json line per cell.
  Request cell;
  cell.kind = RequestKind::kTableCell;
  cell.technology = "NTRS-250nm-Cu";
  cell.level = 3;
  cell.dielectric = "hsq";
  std::string table = "[";
  for (int i = 0; i < 64; ++i) {
    cell.id = std::to_string(i);
    cell.duty_cycle = std::pow(10.0, -3.0 + 3.0 * i / 64.0);
    if (i > 0) table += ",";
    table += service::request_to_json(cell).dump(-1);
  }
  EXPECT_TRUE(same_batch(table + "]"));
}

}  // namespace
}  // namespace dsmt
