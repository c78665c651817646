// util/atomic_io unit tests: CRC-32 known-answer vectors and the
// write_file_atomic failure contract — every failure path must surface as a
// clean Status with the destination untouched and the tmp file removed.
#include "util/atomic_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace pathsel {
namespace {

bool exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// Restores the unlimited write cap even when an assertion bails out early.
struct CapGuard {
  ~CapGuard() { set_write_file_cap_for_testing(0); }
};

TEST(AtomicIoCrc32, KnownAnswerVectors) {
  // The standard CRC-32 (IEEE 802.3) check values; the "123456789" vector is
  // the catalog value every implementation is validated against.
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(AtomicIoCrc32, ContinuesAcrossEverySplit) {
  const std::string_view text{"123456789"};
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(crc32(text.substr(cut), crc32(text.substr(0, cut))), 0xCBF43926u)
        << "split at " << cut;
  }
}

TEST(AtomicIoCrc32, SensitiveToEveryByte) {
  const std::string base{"pathsel journal record"};
  const std::uint32_t reference = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string corrupt = base;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_NE(crc32(corrupt), reference) << "flip at byte " << i;
  }
  // Length-extension sensitivity: one appended NUL changes the checksum.
  EXPECT_NE(crc32(base + std::string(1, '\0')), reference);
}

TEST(AtomicIoWrite, RoundTripsAndReplacesAtomically) {
  const std::string path = ::testing::TempDir() + "/atomic_io_roundtrip";
  ASSERT_TRUE(write_file_atomic(path, "first contents").is_ok());
  Result<std::string> read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "first contents");

  ASSERT_TRUE(write_file_atomic(path, "second contents").is_ok());
  read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "second contents");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicIoWrite, MissingDirectoryFailsWithCleanStatus) {
  const std::string path =
      ::testing::TempDir() + "/no_such_dir/atomic_io_target";
  const Status s = write_file_atomic(path, "contents");
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_NE(s.message().find(path), std::string::npos) << s.to_string();
  EXPECT_FALSE(exists(path));
}

TEST(AtomicIoWrite, ParentThatIsAFileFailsWithCleanStatus) {
  const std::string parent = ::testing::TempDir() + "/atomic_io_not_a_dir";
  ASSERT_TRUE(write_file_atomic(parent, "i am a file").is_ok());
  const Status s = write_file_atomic(parent + "/child", "contents");
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  // The parent file must be untouched by the failed write.
  const Result<std::string> read = read_file(parent);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "i am a file");
}

TEST(AtomicIoWrite, ShortWriteLeavesDestinationAndRemovesTmp) {
  // A disk filling up mid-write (injected via the byte cap) must fail with
  // ENOSPC in the message, leave the previous destination bytes intact, and
  // not leak the tmp file.
  const CapGuard guard;
  const std::string path = ::testing::TempDir() + "/atomic_io_enospc";
  ASSERT_TRUE(write_file_atomic(path, "precious old bytes").is_ok());

  set_write_file_cap_for_testing(4);
  const Status s =
      write_file_atomic(path, "a replacement far larger than four bytes");
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kIoError);
  EXPECT_NE(s.message().find("cannot write"), std::string::npos)
      << s.to_string();

  const Result<std::string> read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "precious old bytes");
  EXPECT_FALSE(exists(path + ".tmp"));

  // Under the cap the write succeeds again (the guard resets to unlimited,
  // but a small write under a live cap must also pass).
  ASSERT_TRUE(write_file_atomic(path, "ok").is_ok());
}

TEST(AtomicIoWrite, EmptyContentsAreValid) {
  const std::string path = ::testing::TempDir() + "/atomic_io_empty";
  ASSERT_TRUE(write_file_atomic(path, "").is_ok());
  const Result<std::string> read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(AtomicIoRead, MissingFileIsAnIoError) {
  const Result<std::string> read =
      read_file(::testing::TempDir() + "/atomic_io_no_such_file");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kIoError);
}

TEST(AtomicIoEnsureDirectory, CreatesNestedAndRejectsFiles) {
  const std::string nested = ::testing::TempDir() + "/atomic_io_a/b/c";
  ASSERT_TRUE(ensure_directory(nested).is_ok());
  ASSERT_TRUE(ensure_directory(nested).is_ok());  // idempotent
  ASSERT_TRUE(write_file_atomic(nested + "/probe", "x").is_ok());

  const std::string file = ::testing::TempDir() + "/atomic_io_plain_file";
  ASSERT_TRUE(write_file_atomic(file, "x").is_ok());
  EXPECT_FALSE(ensure_directory(file).is_ok());
}

TEST(AtomicIoFileLock, ContendsPerOpenFileDescription) {
  const std::string path = ::testing::TempDir() + "/atomic_io_lock";
  Result<FileLock> a = FileLock::try_acquire(path);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(a.value().held());
  // flock is per open file description, so a second acquire — even in the
  // same process — contends and comes back non-held with an ok status.
  Result<FileLock> b = FileLock::try_acquire(path);
  ASSERT_TRUE(b.is_ok());
  EXPECT_FALSE(b.value().held());
  a.value().release();
  EXPECT_FALSE(a.value().held());
  Result<FileLock> c = FileLock::try_acquire(path);
  ASSERT_TRUE(c.is_ok());
  EXPECT_TRUE(c.value().held());
}

TEST(AtomicIoFileLock, DefaultAndMovedFromAreInert) {
  FileLock idle;
  EXPECT_FALSE(idle.held());
  idle.release();  // releasing a non-held lock is a no-op
  EXPECT_FALSE(idle.held());

  const std::string path = ::testing::TempDir() + "/atomic_io_lock_move";
  Result<FileLock> held = FileLock::try_acquire(path);
  ASSERT_TRUE(held.is_ok() && held.value().held());
  FileLock moved{std::move(held.value())};
  EXPECT_TRUE(moved.held());
  EXPECT_FALSE(held.value().held());
  FileLock assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.held());
  EXPECT_FALSE(moved.held());
}

TEST(AtomicIoFileLock, BadPathIsAnIoError) {
  const Result<FileLock> lock =
      FileLock::try_acquire(::testing::TempDir() + "/no_such_dir_xyz/f.lock");
  ASSERT_FALSE(lock.is_ok());
  EXPECT_EQ(lock.status().code(), ErrorCode::kIoError);
}

}  // namespace
}  // namespace pathsel
