#include "util/codec.h"

#include <cmath>
#include <cstdlib>

#include "util/atomic_io.h"

namespace pathsel::codec {

std::string Writer::seal() && {
  put_u32(crc32(bytes_));
  return std::move(bytes_);
}

std::optional<std::string_view> unseal(std::string_view image) {
  if (image.size() < kSealBytes) return std::nullopt;
  const std::string_view payload = image.substr(0, image.size() - kSealBytes);
  Cursor tail{image.substr(payload.size())};
  if (crc32(payload) != tail.take_u32("crc")) return std::nullopt;
  return payload;
}

void Cursor::fail_truncated(const char* what) {
  if (failed_) return;
  failed_ = true;
  error_ = std::string{"truncated file: expected "} + what;
}

namespace detail {

bool parse_out_of_range(std::string_view token, double& out) {
  // from_chars reports overflow and underflow alike and leaves `out` alone.
  // strtod tells them apart: an infinity for overflow (rejected), a signed
  // zero or subnormal for underflow (accepted).
  const double v = std::strtod(std::string{token}.c_str(), nullptr);
  if (std::isinf(v)) return false;
  out = v;
  return true;
}

}  // namespace detail

void append_text(std::string& out, double v) {
  // The general format at precision 17 is printf("%.17g") by definition.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_text(std::string& out, Hex v) {
  char buf[24];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v.value, 16);
  const auto len = static_cast<int>(r.ptr - buf);
  if (len < v.digits) out.append(static_cast<std::size_t>(v.digits - len), '0');
  out.append(buf, r.ptr);
}

void append_trailer(std::string& out, std::uint32_t crc, CrcRadix radix) {
  out += "crc ";
  if (radix == CrcRadix::kHex) {
    append_text(out, Hex{crc, 8});
  } else {
    append_text(out, crc);
  }
  out += '\n';
}

void seal_text(std::string& text, CrcRadix radix) {
  append_trailer(text, crc32(text), radix);
}

std::optional<std::string_view> unseal_text(std::string_view text,
                                            CrcRadix radix) {
  if (text.empty() || text.back() != '\n') return std::nullopt;
  // The last line starts after the newline before the final one (npos + 1
  // is 0: a one-line text is all trailer).
  const std::size_t start = text.substr(0, text.size() - 1).rfind('\n') + 1;
  const std::string_view payload = text.substr(0, start);
  std::string trailer;
  append_trailer(trailer, crc32(payload), radix);
  if (text.substr(start) != trailer) return std::nullopt;
  return payload;
}

}  // namespace pathsel::codec
