// Work-queue building blocks: the flock claim primitive and the CRC'd cell
// summary format.  The summary parser carries the same fuzz contract as the
// other on-disk readers — every single-bit corruption and every truncation
// of a real summary is rejected as a clean kParseError — and
// load_valid_summary distinguishes missing (kIoError), corrupt
// (kParseError), and stale-from-an-edited-grid (kInvalidArgument) states,
// which is the predicate the whole crash-reclaim protocol rests on.
#include "matrix/queue.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "matrix/cell.h"
#include "util/atomic_io.h"

namespace pathsel::matrix {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "matrix_queue_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CellSummary sample_summary() {
  CellSummary s;
  s.grid_fp = 0x1122334455667788ULL;
  s.cell_fp = 0x99aabbccddeeff00ULL;
  s.index = 3;
  s.dataset = "UW3";
  s.fault = 0.15;
  s.metric = "rtt";
  s.policy = "disjoint:2";
  s.min_samples = 3;
  s.seed = 1999;
  s.hosts = 20;
  s.measurements = 1200;
  s.completed = 1100;
  s.usable_edges = 150;
  s.pairs = 380;
  s.coverage = 0.71;
  s.better = 0.46;
  s.has_sig = false;
  s.found_full = 0.97;
  s.artifacts.push_back({"cells/cell-00003-99aabbccddeeff00/disjoint.tsv",
                         4242, 0xdeadbeef});
  return s;
}

TEST(MatrixQueueLock, ExclusiveWhileHeldReacquirableAfterRelease) {
  const std::string dir = fresh_dir("lock");
  const std::string path = dir + "/cell.lock";

  Result<FileLock> first = FileLock::try_acquire(path);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(first.value().held());

  // A second open file description contends and comes back non-held (ok
  // status): "someone else owns this right now" is not an error.
  Result<FileLock> second = FileLock::try_acquire(path);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_FALSE(second.value().held());

  first.value().release();
  Result<FileLock> third = FileLock::try_acquire(path);
  ASSERT_TRUE(third.is_ok());
  EXPECT_TRUE(third.value().held());
}

TEST(MatrixQueueLock, DestructorAndMoveRelease) {
  const std::string dir = fresh_dir("lockmove");
  const std::string path = dir + "/cell.lock";
  {
    Result<FileLock> outer = FileLock::try_acquire(path);
    ASSERT_TRUE(outer.is_ok() && outer.value().held());
    FileLock moved = std::move(outer.value());
    EXPECT_TRUE(moved.held());
    EXPECT_FALSE(outer.value().held());
  }  // `moved` destroyed: lock must be gone
  Result<FileLock> again = FileLock::try_acquire(path);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again.value().held());
}

TEST(MatrixQueueLock, UnreachableLockPathIsAnIoError) {
  const Result<FileLock> lock =
      FileLock::try_acquire("/nonexistent-dir-xyzzy/cell.lock");
  ASSERT_FALSE(lock.is_ok());
  EXPECT_EQ(lock.status().code(), ErrorCode::kIoError);
}

TEST(MatrixCellSummary, RoundTripsAndIsByteStable) {
  const CellSummary s = sample_summary();
  const std::string bytes = serialize_cell_summary(s);
  EXPECT_EQ(serialize_cell_summary(s), bytes) << "serialization not stable";

  const Result<CellSummary> parsed = parse_cell_summary(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const CellSummary& p = parsed.value();
  EXPECT_EQ(p.grid_fp, s.grid_fp);
  EXPECT_EQ(p.cell_fp, s.cell_fp);
  EXPECT_EQ(p.index, s.index);
  EXPECT_EQ(p.dataset, s.dataset);
  EXPECT_EQ(p.fault, s.fault);
  EXPECT_EQ(p.metric, s.metric);
  EXPECT_EQ(p.policy, s.policy);
  EXPECT_EQ(p.min_samples, s.min_samples);
  EXPECT_EQ(p.seed, s.seed);
  EXPECT_EQ(p.ok, s.ok);
  EXPECT_EQ(p.pairs, s.pairs);
  EXPECT_EQ(p.better, s.better);
  EXPECT_EQ(p.found_full, s.found_full);
  ASSERT_EQ(p.artifacts.size(), 1u);
  EXPECT_EQ(p.artifacts[0].rel_path, s.artifacts[0].rel_path);
  EXPECT_EQ(p.artifacts[0].size, s.artifacts[0].size);
  EXPECT_EQ(p.artifacts[0].crc, s.artifacts[0].crc);
  EXPECT_EQ(serialize_cell_summary(p), bytes) << "re-render differs";
}

TEST(MatrixCellSummary, DegradedRoundTrip) {
  CellSummary s = sample_summary();
  s.ok = false;
  s.error = "invalid argument: disjoint k=5 needs at least 7 hosts";
  s.artifacts.clear();
  const std::string bytes = serialize_cell_summary(s);
  const Result<CellSummary> parsed = parse_cell_summary(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().error, s.error);
  EXPECT_EQ(serialize_cell_summary(parsed.value()), bytes);
}

// Every double the writer prints reads back bit for bit, subnormals
// included: %.17g prints 5e-324 as 4.9406564584124654e-324.
TEST(MatrixCellSummary, SubnormalsRoundTrip) {
  CellSummary s = sample_summary();
  s.coverage = 5e-324;
  s.better = 2.2250738585072009e-308;
  s.found_full = -0.0;
  const std::string bytes = serialize_cell_summary(s);
  EXPECT_NE(bytes.find("\ncoverage 4.9406564584124654e-324\n"),
            std::string::npos);
  const Result<CellSummary> parsed = parse_cell_summary(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value().coverage),
            std::bit_cast<std::uint64_t>(s.coverage));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value().better),
            std::bit_cast<std::uint64_t>(s.better));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value().found_full),
            std::bit_cast<std::uint64_t>(s.found_full));
  EXPECT_EQ(serialize_cell_summary(parsed.value()), bytes);
}

TEST(MatrixCellSummary, TrailingGarbageIsRejected) {
  std::string padded = serialize_cell_summary(sample_summary());
  // Valid summary followed by junk: the trailing-crc scan must not be
  // fooled by the embedded (now non-final) crc line.
  padded += "extra line\n";
  const Result<CellSummary> parsed = parse_cell_summary(padded);
  EXPECT_FALSE(parsed.is_ok());
}

TEST(MatrixQueueValidation, MissingCorruptAndStaleAreDistinguished) {
  const std::string work = fresh_dir("validate");
  ASSERT_TRUE(ensure_directory(queue_dir(work)).is_ok());
  const CellSummary s = sample_summary();

  // Missing: kIoError.
  EXPECT_EQ(load_valid_summary(work, s.index, s.grid_fp, s.cell_fp)
                .status()
                .code(),
            ErrorCode::kIoError);

  // Valid: parses and matches.
  ASSERT_TRUE(write_file_atomic(cell_summary_path(work, s.index),
                                serialize_cell_summary(s))
                  .is_ok());
  EXPECT_TRUE(load_valid_summary(work, s.index, s.grid_fp, s.cell_fp).is_ok());

  // Stale: right file, wrong grid fingerprint (an edited grid).
  const Result<CellSummary> stale =
      load_valid_summary(work, s.index, s.grid_fp + 1, s.cell_fp);
  ASSERT_FALSE(stale.is_ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kInvalidArgument);

  // Corrupt: torn write.
  const std::string bytes = serialize_cell_summary(s);
  ASSERT_TRUE(write_file_atomic(cell_summary_path(work, s.index),
                                bytes.substr(0, bytes.size() / 2))
                  .is_ok());
  EXPECT_EQ(load_valid_summary(work, s.index, s.grid_fp, s.cell_fp)
                .status()
                .code(),
            ErrorCode::kParseError);
}

}  // namespace
}  // namespace pathsel::matrix
