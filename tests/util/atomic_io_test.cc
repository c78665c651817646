// util/atomic_io unit tests: CRC-32 known-answer vectors, crc32_combine
// against the CRC of the whole buffer, and the write_file_atomic failure
// contract — every failure path must surface as a clean Status with the
// destination untouched and the tmp file removed.
#include "util/atomic_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

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

TEST(AtomicIoCrc32, CombineMatchesTheWholeBuffer) {
  Rng rng{25};
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{9}, std::size_t{4096},
        std::size_t{65'537}, std::size_t{(3 << 20) + 5}}) {
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_u64() & 0xFFU);
    const std::string_view whole{bytes};
    const std::uint32_t expected = crc32(whole);
    // Both empty halves, then seeded random cuts.
    std::vector<std::size_t> cuts{0, size};
    for (int i = 0; i < 4 && size > 0; ++i) cuts.push_back(rng.index(size + 1));
    for (const std::size_t cut : cuts) {
      const std::string_view a = whole.substr(0, cut);
      const std::string_view b = whole.substr(cut);
      EXPECT_EQ(crc32_combine(crc32(a), crc32(b), b.size()), expected)
          << size << " bytes split at " << cut;
    }
  }
}

TEST(AtomicIoCrc32, CombineIsAssociativeAtHugeLengths) {
  // Lengths of 2^32 bytes and more exercise the wrap of the x^(2^k) table;
  // splitting a + b + c either way must agree.
  Rng rng{26};
  for (const std::uint64_t len_b :
       {std::uint64_t{1} << 32, (std::uint64_t{1} << 40) + 3,
        ~std::uint64_t{0} >> 2}) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const auto c = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t len_c = rng.next_u64() >> 8;
    EXPECT_EQ(crc32_combine(crc32_combine(a, b, len_b), c, len_c),
              crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c))
        << len_b;
  }
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

TEST(AtomicIoWrite, PartsWriteTheirConcatenation) {
  const CapGuard guard;
  const std::string path = ::testing::TempDir() + "/atomic_io_parts";
  const std::array<std::string_view, 5> parts{"", "head\n", "", "rows\n",
                                              "crc 1\n"};
  ASSERT_TRUE(write_file_atomic(path, parts).is_ok());
  Result<std::string> read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "head\nrows\ncrc 1\n");

  // A disk that fills inside a later part fails the whole write cleanly.
  set_write_file_cap_for_testing(7);
  ASSERT_FALSE(write_file_atomic(path, std::array<std::string_view, 2>{
                                           "abcde", "fghij"})
                   .is_ok());
  read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), "head\nrows\ncrc 1\n");
  EXPECT_FALSE(exists(path + ".tmp"));
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

// read_file sizes its string from fstat and reads until read() reports the
// end, so every size comes back whole.
void expect_reads_back(const std::string& name, const std::string& contents) {
  const std::string path = ::testing::TempDir() + "/" + name;
  ASSERT_TRUE(write_file_atomic(path, contents).is_ok());
  const Result<std::string> read = read_file(path);
  ASSERT_TRUE(read.is_ok()) << read.status().message();
  EXPECT_TRUE(read.value() == contents) << name;
}

TEST(AtomicIoRead, EmptyFile) { expect_reads_back("atomic_io_read_empty", ""); }

TEST(AtomicIoRead, OneByteFile) {
  expect_reads_back("atomic_io_read_one", "x");
}

TEST(AtomicIoRead, FileOverOneMiB) {
  std::string big(std::size_t{1} << 20, '\0');
  Rng rng{17};
  for (char& c : big) c = static_cast<char>(rng.uniform_int(0, 255));
  big += "tail";
  expect_reads_back("atomic_io_read_big", big);
}

TEST(AtomicIoRead, FileWithoutTrailingNewline) {
  expect_reads_back("atomic_io_read_torn", "first line\nlast line, no newline");
}

// A file larger than its fstat size (procfs reports 0) still reads whole.
TEST(AtomicIoRead, ReadsPastTheStatSize) {
  if (!exists("/proc/self/status")) GTEST_SKIP() << "no procfs";
  const Result<std::string> read = read_file("/proc/self/status");
  ASSERT_TRUE(read.is_ok()) << read.status().message();
  EXPECT_NE(read.value().find("Name:"), std::string::npos);
  EXPECT_EQ(read.value().back(), '\n');
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
