#include "util/codec.h"

#include <cerrno>
#include <cstdlib>

#include "util/atomic_io.h"

namespace pathsel::codec {

namespace {

// strto* need a NUL-terminated copy; a parse counts only when it consumed
// the whole copy (an embedded NUL ends the number early and is rejected).
template <typename T, typename Convert>
bool parse_whole(std::string_view text, T& out, Convert&& convert) {
  const std::string z{text};
  errno = 0;
  char* end = nullptr;
  const T v = convert(z.c_str(), &end);
  if (errno == ERANGE || end == z.c_str() || end != z.c_str() + z.size()) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

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

bool parse_u64(std::string_view text, std::uint64_t& out, int base) {
  const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
  if (first != std::string_view::npos && text[first] == '-') return false;
  return parse_whole(text, out, [base](const char* s, char** end) {
    return static_cast<std::uint64_t>(std::strtoull(s, end, base));
  });
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  return parse_whole(text, out, [](const char* s, char** end) {
    return static_cast<std::int64_t>(std::strtoll(s, end, 10));
  });
}

bool parse_double(std::string_view text, double& out) {
  return parse_whole(text, out, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

}  // namespace pathsel::codec
