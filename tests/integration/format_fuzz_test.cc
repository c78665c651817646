// One corruption harness over every on-disk format: each kFormats entry's
// corpus (a golden file, or the full grid) gets every single-bit flip, every
// truncation, a seeded storm of 1-16 random byte writes, and random garbage.
// No input may crash a reader or trip UB (CI runs this under ASan/UBSan),
// every rejection carries the format's code and a message, and what a reader
// accepts is a fixed point: its writer's bytes read back to themselves.
// Contracts: a sealed format rejects every flip and strict prefix; a journal
// keeps exactly the records before the damage (none if it is in the header);
// a .ds prefix parses iff it ends on a line boundary past the hosts line.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/result_columns.h"
#include "matrix/cell.h"
#include "matrix/grid.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "serve/journal.h"
#include "test_util.h"
#include "util/atomic_io.h"
#include "util/rng.h"

namespace pathsel {
namespace {

// The fingerprint format_golden_test seals its fixtures with.
constexpr std::uint64_t kFingerprint = 0x0123456789abcdefULL;
constexpr meas::MeasurementKind kKind = meas::MeasurementKind::kTraceroute;

// What a reader made of one input: its rejection, or the bytes its writer
// emits for what it read.
using Read = Result<std::string>;

template <typename T, typename Write>
Read read_with(const Result<T>& parsed, Write&& write) {
  if (!parsed.is_ok()) return parsed.status();
  return write(parsed.value());
}

Read read_psrc(std::string_view bytes) {
  return read_with(core::parse_result_columns(bytes), [](const auto& sets) {
    return core::serialize_result_columns(sets);
  });
}

Read read_pssv(std::string_view bytes) {
  return read_with(serve::parse_serve_state(bytes, kFingerprint),
                   [](const serve::ServeStateImage& image) {
                     return serve::serialize_serve_state(image, kFingerprint);
                   });
}

Read read_checkpoint(std::string_view bytes) {
  return read_with(meas::parse_checkpoint(bytes, kKind, kFingerprint),
                   [](const meas::CampaignCheckpoint& cp) {
                     return meas::serialize_checkpoint(cp, kKind, kFingerprint);
                   });
}

Read read_cell_summary(std::string_view bytes) {
  return read_with(matrix::parse_cell_summary(bytes),
                   matrix::serialize_cell_summary);
}

Read read_grid(std::string_view bytes) {
  return read_with(matrix::parse_grid(bytes), matrix::canonical_grid);
}

// A scan never fails: an unusable journal is a rejection, and a usable one
// writes its header and the records it kept, which end its valid bytes.
Read read_psjl(std::string_view bytes) {
  const serve::JournalScan scan = serve::scan_journal(bytes, kFingerprint);
  if (!scan.usable) {
    return Status::error(ErrorCode::kParseError, scan.reject_reason);
  }
  std::string kept = serve::serialize_journal_header(
      kFingerprint, scan.generation, scan.start_seq);
  for (const serve::JournalRecord& r : scan.records) {
    kept += serve::serialize_journal_record(r);
  }
  EXPECT_EQ(scan.valid_bytes, kept.size());
  EXPECT_EQ(scan.truncated, kept.size() < bytes.size());
  EXPECT_EQ(scan.truncated, !scan.truncation_reason.empty());
  return kept;
}

std::string dataset_bytes(const meas::Dataset& ds) {
  std::ostringstream os;
  meas::write_dataset(os, ds);
  return os.str();
}

struct TempFile {
  std::string path;
  ~TempFile() { std::filesystem::remove(path); }
};

// Through both dataset readers, which must agree: load_dataset (the file
// reader) and read_dataset (the stream reader).
Read read_ds(std::string_view bytes) {
  static const TempFile file{::testing::TempDir() + "format_fuzz_" +
                             std::to_string(::getpid()) + ".ds"};
  std::ofstream{file.path, std::ios::binary | std::ios::trunc}.write(
      bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const Result<meas::Dataset> loaded = meas::load_dataset(file.path);
  std::istringstream in{std::string{bytes}};
  const std::optional<meas::Dataset> streamed = meas::read_dataset(in);
  EXPECT_EQ(streamed.has_value(), loaded.is_ok());
  return read_with(loaded, dataset_bytes);
}

enum class Contract { kSealed, kJournal, kText, kDataset };

struct Format {
  const char* name;
  const char* golden;  // the corpus under golden/formats/; nullptr: the grid
  Contract contract;
  Read (*read)(std::string_view);
  ErrorCode rejection = ErrorCode::kParseError;
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

const Format kFormats[] = {
    {"psrc", "psrc.bin", Contract::kSealed, read_psrc},
    {"pssv", "pssv.bin", Contract::kSealed, read_pssv},
    {"checkpoint", "checkpoint.txt", Contract::kSealed, read_checkpoint},
    {"cell_summary_ok", "cell_summary_ok.txt", Contract::kSealed,
     read_cell_summary},
    {"cell_summary_degraded", "cell_summary_degraded.txt", Contract::kSealed,
     read_cell_summary},
    {"psjl", "psjl.bin", Contract::kJournal, read_psjl},
    {"dataset_traceroute", "dataset_traceroute.ds", Contract::kDataset,
     read_ds},
    {"dataset_tcp", "dataset_tcp.ds", Contract::kDataset, read_ds},
    {"grid", nullptr, Contract::kText, read_grid, ErrorCode::kInvalidArgument},
};

std::string golden_dir() {
  return std::string{PATHSEL_GOLDEN_DIR} + "/formats";
}

std::string corpus(const Format& f) {
  if (f.golden == nullptr) return test::kFullGrid;
  return read_file(golden_dir() + "/" + f.golden).value();
}

enum class Want { kReject, kAccept, kEither };

// The reader's outcome on `input` is `want`, and an accepted input writes
// `written` when that is given.
::testing::AssertionResult reads_as(
    const Format& f, std::string_view input, Want want,
    std::optional<std::string_view> written = std::nullopt) {
  const Read r = f.read(input);
  if (want != Want::kEither && r.is_ok() != (want == Want::kAccept)) {
    return ::testing::AssertionFailure()
           << (r.is_ok() ? "accepted" : "rejected: " + r.status().to_string());
  }
  if (!r.is_ok()) {
    if (r.status().code() == f.rejection && !r.status().message().empty()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "rejected as '" << r.status().to_string() << "'";
  }
  if (written.has_value() && r.value() != *written) {
    return ::testing::AssertionFailure() << "read as '" << r.value() << "'";
  }
  const Read again = f.read(r.value());
  if (!again.is_ok() || again.value() != r.value()) {
    return ::testing::AssertionFailure()
           << "its rewrite is no fixed point: '" << r.value() << "'";
  }
  return ::testing::AssertionSuccess();
}

// A journal whose first `len` bytes are intact keeps the records among them.
::testing::AssertionResult journal_keeps(const Format& f, std::string_view good,
                                         std::string_view input,
                                         std::size_t len) {
  constexpr std::size_t kHeader = serve::kJournalHeaderBytes;
  constexpr std::size_t kRecord = 8 + serve::kRecordPayloadBytes;
  if (len < kHeader) return reads_as(f, input, Want::kReject);
  return reads_as(f, input, Want::kAccept,
                  good.substr(0, len - (len - kHeader) % kRecord));
}

class FormatFuzz : public ::testing::TestWithParam<Format> {};

TEST_P(FormatFuzz, EverySingleBitFlip) {
  const Format& f = GetParam();
  const std::string good = corpus(f);
  std::string input = good;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      input[byte] = static_cast<char>(good[byte] ^ (1 << bit));
      ASSERT_TRUE(f.contract == Contract::kJournal
                      ? journal_keeps(f, good, input, byte)
                      : reads_as(f, input, f.contract == Contract::kSealed
                                               ? Want::kReject
                                               : Want::kEither))
          << "bit " << bit << " of byte " << byte;
    }
    input[byte] = good[byte];
  }
}

TEST_P(FormatFuzz, EveryTruncation) {
  const Format& f = GetParam();
  const std::string good = corpus(f);
  for (std::size_t len = 0; len <= good.size(); ++len) {
    const std::string_view input = std::string_view{good}.substr(0, len);
    Want want = len == good.size() ? Want::kAccept : Want::kEither;
    std::optional<std::string_view> written;
    if (f.contract == Contract::kSealed && len < good.size()) {
      want = Want::kReject;
    } else if (f.contract == Contract::kDataset) {
      // A whole-line prefix past the header holds whole rows and writes
      // itself back; any other prefix is torn.
      const std::size_t hosts_end = good.find('\n', good.find("\nhosts ") + 1);
      const bool whole = len > hosts_end && input.back() == '\n';
      want = whole ? Want::kAccept : Want::kReject;
      written = input;
    }
    ASSERT_TRUE(f.contract == Contract::kJournal
                    ? journal_keeps(f, good, input, len)
                    : reads_as(f, input, want, written))
        << "prefix of " << len << " bytes";
  }
}

TEST_P(FormatFuzz, CorruptionStorm) {
  const Format& f = GetParam();
  const std::string good = corpus(f);
  Rng rng{0xfaded0facu};
  for (int round = 0; round < 2000; ++round) {
    std::string input = good;
    for (auto writes = rng.uniform_int(1, 16); writes > 0; --writes) {
      input[rng.index(input.size())] =
          static_cast<char>(rng.uniform_int(0, 255));
    }
    ASSERT_TRUE(reads_as(f, input, Want::kEither)) << "storm round " << round;
  }
}

TEST_P(FormatFuzz, RandomGarbage) {
  const Format& f = GetParam();
  Rng rng{0xdeadbeadu};
  for (int round = 0; round < 500; ++round) {
    std::string input(static_cast<std::size_t>(rng.uniform_int(0, 512)), '\0');
    for (char& c : input) c = static_cast<char>(rng.uniform_int(0, 255));
    ASSERT_TRUE(reads_as(f, input, Want::kEither)) << "garbage round " << round;
  }
}

// ctest names each case by its PrintTo name: FormatFuzz.EveryTruncation/psrc.
INSTANTIATE_TEST_SUITE_P(, FormatFuzz, ::testing::ValuesIn(kFormats));

TEST_F(FormatFuzz, EveryGoldenIsACorpus) {
  std::set<std::string> covered;
  for (const Format& f : kFormats) {
    if (f.golden != nullptr) covered.insert(f.golden);
  }
  for (const auto& entry : std::filesystem::directory_iterator{golden_dir()}) {
    EXPECT_EQ(covered.count(entry.path().filename().string()), 1u)
        << entry.path() << " is no FormatFuzz corpus";
  }
}

}  // namespace
}  // namespace pathsel
