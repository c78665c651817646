// Shared codec for the on-disk formats: little-endian binary fields, the
// CRC-tail envelope, and strict whole-token number parsing.
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
// parse_u64 / parse_i64 / parse_double accept exactly the language of
// strtoull / strtoll / strtod (leading whitespace, an optional sign, base
// prefixes, "inf"/"nan"), but only as one whole token: empty text, trailing
// characters and out-of-range values (ERANGE) are rejected, and `out` is left
// untouched on failure.  parse_u64 also rejects a negative sign, which
// strtoull would accept and wrap.
#pragma once

#include <bit>
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

[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out,
                             int base = 10);
[[nodiscard]] bool parse_i64(std::string_view text, std::int64_t& out);
[[nodiscard]] bool parse_double(std::string_view text, double& out);

}  // namespace pathsel::codec
