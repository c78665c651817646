#include "util/atomic_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace pathsel {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// The product a(x) b(x) mod P(x) in the reflected bit order crc32 uses (bit
// 31 is the x^0 coefficient).
std::uint32_t mult_mod_p(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1U << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1U) != 0 ? 0xEDB88320U ^ (b >> 1) : b >> 1;
  }
  return product;
}

// x^(2^k) mod P(x) for k = 0..31.
std::array<std::uint32_t, 32> make_x2n_table() noexcept {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1U << 30;  // x^1
  for (std::uint32_t& entry : table) {
    entry = p;
    p = mult_mod_p(p, p);
  }
  return table;
}

Status io_error(const std::string& what, const std::string& path) {
  return Status::error(ErrorCode::kIoError,
                       what + " " + path + ": " + std::strerror(errno));
}

// fsync a path opened read-only (used for the containing directory, so the
// rename itself is durable).  Best effort: some filesystems refuse directory
// fsync; a failure there is not a torn file, so it is not fatal.
void fsync_directory(const std::string& dir) noexcept {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// 0: unlimited.  Nonzero: write_file_atomic fails with ENOSPC once this many
// bytes have been written (see testing::set_write_file_cap_for_testing).
std::size_t g_write_cap_bytes = 0;

}  // namespace

void set_write_file_cap_for_testing(std::size_t cap_bytes) noexcept {
  g_write_cap_bytes = cap_bytes;
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t prior) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = prior ^ 0xFFFFFFFFU;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept {
  // Appending len_b bytes multiplies a's register by x^(8 len_b); the
  // conditioning of the two CRCs cancels, so the product xors with crc_b.
  // x's multiplicative order mod P divides 2^32 - 1, so x^(2^k) repeats
  // with period 32 in k and the table index wraps.
  static const std::array<std::uint32_t, 32> x2n = make_x2n_table();
  std::uint32_t shift = 1U << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1U) != 0) shift = mult_mod_p(x2n[k % x2n.size()], shift);
  }
  return mult_mod_p(shift, crc_a) ^ crc_b;
}

Status write_file_atomic(const std::string& path, std::string_view contents) {
  return write_file_atomic(path,
                           std::span<const std::string_view>{&contents, 1});
}

Status write_file_atomic(const std::string& path,
                         std::span<const std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("cannot open", tmp);

  std::size_t written = 0;
  for (const std::string_view part : parts) {
    const char* data = part.data();
    std::size_t left = part.size();
    while (left > 0) {
      if (g_write_cap_bytes != 0 && written >= g_write_cap_bytes) {
        errno = ENOSPC;  // injected disk-full (set_write_file_cap_for_testing)
        const Status s = io_error("cannot write", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return s;
      }
      std::size_t attempt = left;
      if (g_write_cap_bytes != 0) {
        attempt = std::min(attempt, g_write_cap_bytes - written);
      }
      const ssize_t n = ::write(fd, data, attempt);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = io_error("cannot write", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return s;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
      written += static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    const Status s = io_error("cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    const Status s = io_error("cannot close", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = io_error("cannot rename over", path);
    ::unlink(tmp.c_str());
    return s;
  }
  const auto slash = path.find_last_of('/');
  fsync_directory(slash == std::string::npos ? std::string{"."}
                                             : path.substr(0, slash));
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_error("cannot open", path);
  // Sized once from fstat and filled in place; the size is only a hint, so
  // a file that grows or shrinks meanwhile still comes back whole: reading
  // goes on until read() reports the end.
  struct stat st {};
  const std::size_t hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  std::string text(hint + 1, '\0');  // one spare byte sees the end at once
  std::size_t filled = 0;
  for (;;) {
    if (filled == text.size()) text.resize(filled + filled / 2 + 4096);
    const ssize_t n = ::read(fd, text.data() + filled, text.size() - filled);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error("cannot read", path);
      ::close(fd);
      return s;
    }
    filled += static_cast<std::size_t>(n);
  }
  ::close(fd);
  text.resize(filled);
  return text;
}

Status ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::error(ErrorCode::kIoError,
                         "cannot create directory " + path + ": " + ec.message());
  }
  return Status::ok();
}

FileLock::FileLock(FileLock&& other) noexcept : fd_{other.fd_} {
  other.fd_ = -1;
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FileLock::~FileLock() { release(); }

Result<FileLock> FileLock::try_acquire(const std::string& path) {
  // O_CLOEXEC keeps the descriptor (and hence the lock) from leaking into
  // exec'd children; fork'd children of the holder share it by design.
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("cannot open lock file", path);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK || err == EINTR) return FileLock{};  // busy
    errno = err;
    return io_error("cannot lock", path);
  }
  FileLock lock;
  lock.fd_ = fd;
  return lock;
}

void FileLock::release() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);  // closing the last descriptor drops the flock
    fd_ = -1;
  }
}

}  // namespace pathsel
