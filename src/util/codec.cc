#include "util/codec.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>

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

namespace {

constexpr std::uint64_t kTen16 = 10'000'000'000'000'000ULL;
constexpr std::uint64_t kTen17 = 10 * kTen16;

constexpr std::array<std::uint64_t, 23> kPow5 = [] {
  std::array<std::uint64_t, 23> p{};
  p[0] = 1;
  for (std::size_t i = 1; i < p.size(); ++i) p[i] = 5 * p[i - 1];
  return p;
}();

constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> d{};
  for (std::size_t i = 0; i < 100; ++i) {
    d[2 * i] = static_cast<char>('0' + i / 10);
    d[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return d;
}();

// floor(m * 2^shift * 10^scale) for 0 <= scale < kPow5.size(), exact, and
// whether the dropped fraction is above, at or below one half (+1, 0, -1).
std::uint64_t scale_floor(std::uint64_t m, int shift, int scale, int& half) {
  using u128 = unsigned __int128;
  const u128 p = u128{m} * kPow5[static_cast<std::size_t>(scale)];
  const int k = -(shift + scale);  // p * 2^-k
  if (k <= 0) {
    half = -1;
    return static_cast<std::uint64_t>(p << -k);
  }
  const u128 rem = p & ((u128{1} << k) - 1);
  const u128 mid = u128{1} << (k - 1);
  half = rem > mid ? 1 : (rem == mid ? 0 : -1);
  return static_cast<std::uint64_t>(p >> k);
}

// The %.17g text of |v| for a normal v in the fast range, or nullptr.
char* format_fast(char* p, std::uint64_t bits) {
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased == 0 || biased == 0x7ff) return nullptr;  // 0, subnormal, inf, nan
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int shift = biased - 1075;  // |v| = m * 2^shift
  // floor(log10(2^(shift + 52))): the decimal exponent of |v| or one less.
  int exp10 = ((shift + 52) * 78913) >> 18;
  if (16 - exp10 < 0 || 16 - exp10 >= static_cast<int>(kPow5.size())) {
    return nullptr;
  }
  int half = 0;
  std::uint64_t n = scale_floor(m, shift, 16 - exp10, half);
  if (n >= kTen17) {
    ++exp10;
    if (16 - exp10 < 0) return nullptr;
    n = scale_floor(m, shift, 16 - exp10, half);
  }
  if (16 - exp10 > 21) return nullptr;
  if (half > 0 || (half == 0 && (n & 1) != 0)) ++n;  // round half to even
  if (n == kTen17) {  // 99...9.5 carried into the next power of ten
    n = kTen16;
    ++exp10;
  }

  char d[17];
  for (int i = 16; i > 0; i -= 2) {
    std::memcpy(d + i - 1, kDigitPairs.data() + 2 * (n % 100), 2);
    n /= 100;
  }
  d[0] = static_cast<char>('0' + n);
  int last = 16;  // the last digit %g keeps: trailing zeros are dropped
  while (d[last] == '0') --last;

  if (exp10 < -4 || exp10 >= 17) {  // %e style
    *p++ = d[0];
    if (last > 0) {
      *p++ = '.';
      std::memcpy(p, d + 1, static_cast<std::size_t>(last));
      p += last;
    }
    *p++ = 'e';
    *p++ = exp10 < 0 ? '-' : '+';
    const int e = exp10 < 0 ? -exp10 : exp10;
    std::memcpy(p, kDigitPairs.data() + 2 * e, 2);
    return p + 2;
  }
  if (exp10 < 0) {  // 0.000ddd
    *p++ = '0';
    *p++ = '.';
    for (int i = -1; i > exp10; --i) *p++ = '0';
    std::memcpy(p, d, static_cast<std::size_t>(last + 1));
    return p + last + 1;
  }
  std::memcpy(p, d, static_cast<std::size_t>(exp10 + 1));
  p += exp10 + 1;
  if (last > exp10) {
    *p++ = '.';
    std::memcpy(p, d + exp10 + 1, static_cast<std::size_t>(last - exp10));
    p += last - exp10;
  }
  return p;
}

}  // namespace

char* format_real(char* first, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char* p = first;
  if ((bits >> 63) != 0) *p++ = '-';
  if (char* end = format_fast(p, bits); end != nullptr) return end;
  // The general format at precision 17 is printf("%.17g") by definition.
  return std::to_chars(first, first + kMaxRealText, v,
                       std::chars_format::general, 17)
      .ptr;
}

void append_text(std::string& out, double v) {
  char buf[kMaxRealText];
  out.append(buf, format_real(buf, v));
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
