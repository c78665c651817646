// Shared codec for the on-disk formats: little-endian binary fields, the
// CRC-tail envelope, and the text section every line-oriented format reads
// and writes through.
//
// The binary formats (PSRC in core/result_columns.h; PSJL and PSSV in
// serve/journal.h) assemble every field byte by byte with shifts, never by
// copying whole words, so a file is identical on every host.  Writer appends
// fields; Cursor reads them back with bounds checks, and the first read that
// runs past the end fails the cursor with a message naming that field.
//
// The CRC-tail envelope is the whole-image integrity check those formats
// share: Writer::seal() appends the crc32 (util/atomic_io.h) of every
// preceding byte as a u32, and unseal() splits that tail off and verifies
// it.  Each format decides when to check the envelope relative to its own
// magic and version fields, so nothing here depends on which format calls.
//
// The text formats (.ds datasets and campaign checkpoints in meas/, matrix
// cell summaries and grids, serve trace and update lines) share the text
// section below: a line cursor (Lines), a tokenizer (Tokens), one
// whole-token parser per number type (parse_int, parse_real), one field
// writer (append_text) and one crc trailer (seal_text / unseal_text).
//
// Token language.  A line splits into tokens at the C locale's whitespace
// (space, \t, \n, \v, \f, \r) and every token is parsed whole: empty text,
// trailing characters and out-of-range values are rejected, and `out` is
// left untouched on failure.
//   - Integers: an optional sign ('+' included, '-' only for signed types),
//     then digits in the given base; base 16 also takes strtoull's "0x" or
//     "0X" prefix after the sign.
//   - Reals: an optional sign, then decimal digits with an optional point
//     and fraction, and an optional exponent ("1", "+1.5", ".5", "5.",
//     "1e2", "-0").  A digit or a point must follow the sign, so there is no
//     hex, inf or nan.  A value too small for a double reads as a zero or
//     subnormal of its sign; one too large is rejected.
// parse_u64 / parse_i64 / parse_double are the same parsers for a value
// that is not a whitespace-split token (a "key value" field, a CLI flag):
// they also skip leading whitespace, as strto* does.
//
// The field writer prints integers in base 10, doubles as printf("%.17g")
// (enough digits to round-trip every double bit for bit) and Hex values as
// zero-padded lowercase hex.
#pragma once

#include <bit>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace pathsel::codec {

/// Appends little-endian fields to a growing byte image.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { bytes_.reserve(reserve); }

  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes_.push_back(static_cast<char>((v >> shift) & 0xffu));
    }
  }
  void put_u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_.push_back(static_cast<char>((v >> shift) & 0xffu));
    }
  }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(std::string_view bytes) { bytes_.append(bytes); }

  /// The image written so far, without an envelope.
  [[nodiscard]] std::string take() && { return std::move(bytes_); }
  /// The image with the CRC-tail envelope appended.
  [[nodiscard]] std::string seal() &&;

 private:
  std::string bytes_;
};

/// Bytes of the CRC tail that Writer::seal() appends.
inline constexpr std::size_t kSealBytes = 4;

/// The payload of a sealed image (everything before its CRC tail), or
/// nullopt when the image is shorter than the tail or the CRC does not match.
[[nodiscard]] std::optional<std::string_view> unseal(std::string_view image);

/// Bounds-checked forward reader over a byte image.  A read that would run
/// past the end fails the cursor with "truncated file: expected <what>" and
/// returns zero; every later read returns zero too, so a parser may read a
/// group of fields and check failed() once.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_{bytes} {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// The first failure's message; empty while the cursor is good.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// True when `count` elements of `elem_size` bytes are still present: the
  /// guard to apply to a length field before allocating for it.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t elem_size) const
      noexcept {
    return count <= remaining() / elem_size;
  }

  std::uint8_t take_u8(const char* what) {
    if (!need(1, what)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t take_u32(const char* what) {
    if (!need(4, what)) return 0;
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
           << shift;
    }
    return v;
  }
  std::uint64_t take_u64(const char* what) {
    if (!need(8, what)) return 0;
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
           << shift;
    }
    return v;
  }
  std::int32_t take_i32(const char* what) {
    return static_cast<std::int32_t>(take_u32(what));
  }
  std::int64_t take_i64(const char* what) {
    return static_cast<std::int64_t>(take_u64(what));
  }
  double take_f64(const char* what) {
    return std::bit_cast<double>(take_u64(what));
  }
  /// The next `n` bytes as a view into the image (empty on failure).
  std::string_view take_bytes(std::size_t n, const char* what) {
    if (!need(n, what)) return {};
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (!failed_ && remaining() >= n) return true;
    fail_truncated(what);
    return false;
  }
  void fail_truncated(const char* what);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

// ---- text ------------------------------------------------------------------

/// The whitespace that separates tokens: the C locale's isspace set.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Parses one whole token as an integer in `base` (2..36).
template <std::integral Int>
[[nodiscard]] bool parse_int(std::string_view token, Int& out,
                             int base = 10) noexcept {
  // from_chars takes a '-' but not a '+', and no base prefix.
  if (!token.empty() && token.front() == '+') {
    token.remove_prefix(1);
    if (!token.empty() && token.front() == '-') return false;
  }
  if (base == 16 && token.size() > 1 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    token.remove_prefix(2);
  }
  const char* end = token.data() + token.size();
  Int v{};
  const std::from_chars_result r = std::from_chars(token.data(), end, v, base);
  if (r.ec != std::errc{} || r.ptr != end) return false;
  out = v;
  return true;
}

namespace detail {
/// parse_real's fallback for a token from_chars found out of range.
[[nodiscard]] bool parse_out_of_range(std::string_view token, double& out);
}  // namespace detail

/// Parses one whole token as a decimal real.
[[nodiscard]] inline bool parse_real(std::string_view token, double& out) {
  const bool plus = !token.empty() && token.front() == '+';
  if (plus) token.remove_prefix(1);
  const std::size_t lead = !plus && !token.empty() && token.front() == '-';
  // A digit or a point must follow the sign: this rules out a second sign
  // and the inf/nan spellings from_chars would otherwise take.
  if (token.size() <= lead ||
      !((token[lead] >= '0' && token[lead] <= '9') || token[lead] == '.')) {
    return false;
  }
  const char* end = token.data() + token.size();
  double v = 0.0;
  const std::from_chars_result r =
      std::from_chars(token.data(), end, v, std::chars_format::general);
  if (r.ptr != end) return false;
  if (r.ec == std::errc::result_out_of_range) {
    return detail::parse_out_of_range(token, out);
  }
  if (r.ec != std::errc{}) return false;
  out = v;
  return true;
}

namespace detail {
/// The text after its leading whitespace.
constexpr std::string_view skip_space(std::string_view text) noexcept {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  return text;
}
}  // namespace detail

[[nodiscard]] inline bool parse_u64(std::string_view text, std::uint64_t& out,
                                    int base = 10) noexcept {
  return parse_int(detail::skip_space(text), out, base);
}
[[nodiscard]] inline bool parse_i64(std::string_view text,
                                    std::int64_t& out) noexcept {
  return parse_int(detail::skip_space(text), out);
}
[[nodiscard]] inline bool parse_double(std::string_view text, double& out) {
  return parse_real(detail::skip_space(text), out);
}

/// Splits text into lines at '\n' as std::getline does: a last line
/// without a newline still counts, and a final newline does not start an
/// empty line.
class Lines {
 public:
  explicit Lines(std::string_view text) noexcept : text_{text} {}

  /// The next line, without its '\n'; false once the text is used up.
  bool next(std::string_view& line) noexcept {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    const std::size_t stop = nl == std::string_view::npos ? text_.size() : nl;
    line = text_.substr(pos_, stop - pos_);
    pos_ = stop + 1;
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Whitespace-separated tokens of one line.
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept
      : p_{line.data()}, end_{line.data() + line.size()} {}

  /// The next token; empty once the line is used up.
  std::string_view next() noexcept {
    while (p_ != end_ && is_space(*p_)) ++p_;
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  /// Everything after the last token taken, unskipped.
  std::string_view rest() const noexcept {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

  template <std::integral Int>
  bool next_int(Int& out) noexcept {
    return parse_int(next(), out);
  }
  bool next_real(double& out) { return parse_real(next(), out); }

 private:
  const char* p_;
  const char* end_;
};

/// Reads a "key value" line: true when its first token is `key`, with
/// `value` the rest of the line after the one space that follows the key
/// (the value may be empty or hold spaces).
[[nodiscard]] inline bool split_field(std::string_view line,
                                      std::string_view key,
                                      std::string_view& value) noexcept {
  Tokens ls{line};
  if (ls.next() != key) return false;
  value = ls.rest();
  if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  return true;
}

/// A value the field writer prints as `digits` zero-padded lowercase hex
/// digits: printf's %016llx by default, %08lx for a crc.
struct Hex {
  std::uint64_t value = 0;
  int digits = 16;
};

/// Appends the text of one value: an integer in base 10, a double as
/// printf("%.17g"), a Hex value, or a string as it is.
template <std::integral Int>
void append_text(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}
void append_text(std::string& out, double v);
void append_text(std::string& out, Hex v);
inline void append_text(std::string& out, std::string_view v) { out += v; }

/// Appends ' ' and the value: one field of a line.
template <typename T>
void append_field(std::string& out, const T& v) {
  out += ' ';
  append_text(out, v);
}

/// Appends one "key field field ...\n" line.
template <typename... Fields>
void append_line(std::string& out, std::string_view key,
                 const Fields&... fields) {
  out += key;
  (append_field(out, fields), ...);
  out += '\n';
}

/// The text append_text writes for `v`, as a string.
template <typename T>
[[nodiscard]] std::string to_text(const T& v) {
  std::string out;
  append_text(out, v);
  return out;
}

/// How a text format spells the number in its crc trailer: base 10, or
/// eight lowercase hex digits (%08lx).
enum class CrcRadix { kDecimal, kHex };

/// Appends the trailer line "crc <n>\n", where n is the crc32 of `text`.
void seal_text(std::string& text, CrcRadix radix);

/// The payload of sealed text (everything before its last line), or nullopt
/// unless the text ends in '\n' and its last line is exactly the trailer
/// seal_text appends to that payload: a trailer spelled any other way, with
/// a sign, a leading zero or other case, is rejected.
[[nodiscard]] std::optional<std::string_view> unseal_text(
    std::string_view text, CrcRadix radix);

}  // namespace pathsel::codec
