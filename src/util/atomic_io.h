// Crash-safe file primitives for checkpointing.
//
// A checkpoint that can be torn by the crash it exists to survive is worse
// than none: a half-written file that parses as valid silently corrupts the
// resumed campaign.  Two defenses, used together by meas/checkpoint:
//
//  1. write_file_atomic: write to `<path>.tmp`, fsync the file, rename over
//     the destination, fsync the directory.  A crash at any instant leaves
//     either the old complete file or the new complete file — never a mix.
//  2. crc32: a checksum of the payload in the file's own trailer, so a file
//     torn by other means (disk-full truncation, manual tampering, a torn
//     tmp file left behind) is detected and discarded instead of parsed.
//
// The CRC is the standard reflected CRC-32 (IEEE 802.3, polynomial
// 0xEDB88320), computed in software so it is identical on every platform.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pathsel {

/// CRC-32 (IEEE) of the bytes, seeded with the conventional ~0 / final xor.
/// Pass the CRC of the bytes before these as `prior` to continue it:
/// crc32(b, crc32(a)) == crc32(a + b).
[[nodiscard]] std::uint32_t crc32(std::string_view bytes,
                                  std::uint32_t prior = 0) noexcept;

/// Writes `contents` to `path` atomically: tmp file + fsync + rename +
/// directory fsync.  On any failure the destination is untouched and the tmp
/// file is removed (best effort).
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       std::string_view contents);

/// Reads a whole file; kIoError if it cannot be opened or read.
[[nodiscard]] Result<std::string> read_file(const std::string& path);

/// Creates the directory (and parents) if missing; kIoError on failure.
[[nodiscard]] Status ensure_directory(const std::string& path);

/// Caps the bytes write_file_atomic may write before its write() fails with
/// ENOSPC — a deterministic stand-in for a full disk, used to test that a
/// short write surfaces as a clean Status with the destination untouched and
/// the tmp file removed.  0 (the default) disables the cap.  Test-only; not
/// thread-safe against concurrent writers.
void set_write_file_cap_for_testing(std::size_t cap_bytes) noexcept;

/// An advisory exclusive lock on a file, for cross-process work claiming
/// (the scenario-matrix work queue).  Built on flock(LOCK_EX): the kernel
/// releases the lock when the holding process dies — including by SIGKILL —
/// so a crashed worker's claim evaporates and another process can reclaim
/// the work without any lease bookkeeping.  The lock file itself is an empty
/// marker created on first acquire and deliberately never deleted (deleting
/// it would race a concurrent acquire on the old inode).
///
/// flock locks belong to the open file description: the lock is shared with
/// a child across fork().  Acquire locks after forking, not before.
class FileLock {
 public:
  FileLock() = default;
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock();

  /// Tries to take the exclusive lock without blocking.  Returns a held()
  /// lock on success, a non-held() lock when another process holds it, and
  /// kIoError when the lock file cannot be created or opened.
  [[nodiscard]] static Result<FileLock> try_acquire(const std::string& path);

  [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }

  /// Drops the lock (closing the descriptor releases it); idempotent.
  void release() noexcept;

 private:
  int fd_ = -1;
};

}  // namespace pathsel
