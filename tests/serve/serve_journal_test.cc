// Journal format unit tests: framing round-trips, torn-tail and corruption
// handling, the textual update grammar, and the compacted state snapshot.
// The contract throughout: malformed bytes are *described*, never parsed
// into state and never fatal beyond the torn suffix.
#include "serve/journal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/path_table.h"
#include "test_util.h"
#include "util/atomic_io.h"

namespace pathsel::serve {
namespace {

constexpr std::uint64_t kPrint = 0xABCD1234DEADBEEF;  // arbitrary fingerprint

JournalRecord make_record(std::uint64_t seq, int a, int b, double rtt,
                          bool lost) {
  JournalRecord r;
  r.seq = seq;
  r.update.a = topo::HostId{a};
  r.update.b = topo::HostId{b};
  r.update.rtt_ms = rtt;
  r.update.lost = lost;
  return r;
}

std::string journal_bytes(std::uint64_t fingerprint,
                          const std::vector<JournalRecord>& records,
                          std::uint64_t generation = 0,
                          std::uint64_t start_seq = 1) {
  std::string bytes =
      serialize_journal_header(fingerprint, generation, start_seq);
  for (const JournalRecord& r : records) bytes += serialize_journal_record(r);
  return bytes;
}

TEST(ServeJournalFormat, HeaderIsFixedSizeAndScans) {
  const std::string header = serialize_journal_header(kPrint, 7, 42);
  EXPECT_EQ(header.size(), kJournalHeaderBytes);
  const JournalScan scan = scan_journal(header, kPrint);
  EXPECT_TRUE(scan.usable);
  EXPECT_EQ(scan.generation, 7u);
  EXPECT_EQ(scan.start_seq, 42u);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, kJournalHeaderBytes);
}

TEST(ServeJournalFormat, RecordsRoundTripExactly) {
  const std::vector<JournalRecord> in = {
      make_record(1, 3, 9, 12.5, false),
      make_record(2, 0, 1, 0.0, true),
      // A bit pattern that would not survive a text round-trip.
      make_record(3, 100, 2000000, 0.1 + 0.2, false),
  };
  const JournalScan scan = scan_journal(journal_bytes(kPrint, in), kPrint);
  ASSERT_TRUE(scan.usable);
  ASSERT_EQ(scan.records.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, in[i].seq);
    EXPECT_EQ(scan.records[i].update.a, in[i].update.a);
    EXPECT_EQ(scan.records[i].update.b, in[i].update.b);
    // Bit-exact doubles: the journal stores the IEEE pattern, not text.
    EXPECT_EQ(scan.records[i].update.rtt_ms, in[i].update.rtt_ms);
    EXPECT_EQ(scan.records[i].update.lost, in[i].update.lost);
  }
  EXPECT_FALSE(scan.truncated);
}

TEST(ServeJournalScan, RejectsForeignFingerprint) {
  const std::string bytes =
      journal_bytes(kPrint, {make_record(1, 0, 1, 5.0, false)});
  const JournalScan scan = scan_journal(bytes, kPrint + 1);
  EXPECT_FALSE(scan.usable);
  EXPECT_NE(scan.reject_reason.find("fingerprint"), std::string::npos)
      << scan.reject_reason;
}

TEST(ServeJournalScan, RejectsBadMagicAndShortHeader) {
  EXPECT_FALSE(scan_journal("", kPrint).usable);
  EXPECT_FALSE(scan_journal("PSJLxxxx", kPrint).usable);
  std::string bytes = journal_bytes(kPrint, {});
  bytes[0] = 'X';
  EXPECT_FALSE(scan_journal(bytes, kPrint).usable);
}

TEST(ServeJournalScan, RejectsCorruptHeaderCrc) {
  std::string bytes = journal_bytes(kPrint, {});
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);  // inside generation field
  const JournalScan scan = scan_journal(bytes, kPrint);
  EXPECT_FALSE(scan.usable);
}

TEST(ServeJournalScan, TornTailTruncatesToLastIntactRecord) {
  const std::vector<JournalRecord> in = {make_record(1, 0, 1, 5.0, false),
                                         make_record(2, 1, 2, 6.0, true)};
  const std::string whole = journal_bytes(kPrint, in);
  const std::size_t intact =
      kJournalHeaderBytes + (whole.size() - kJournalHeaderBytes) / 2;
  // Cut mid-record: the first record survives, the second is torn wear.
  const JournalScan scan = scan_journal(whole.substr(0, intact + 3), kPrint);
  ASSERT_TRUE(scan.usable);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.valid_bytes, intact);
  EXPECT_FALSE(scan.truncation_reason.empty());
}

TEST(ServeJournalScan, SequenceBreakStopsTheScan) {
  const std::string bytes = journal_bytes(
      kPrint, {make_record(1, 0, 1, 5.0, false),
               make_record(5, 1, 2, 6.0, false)});  // gap: 1 then 5
  const JournalScan scan = scan_journal(bytes, kPrint);
  ASSERT_TRUE(scan.usable);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
}

TEST(ServeJournalParseUpdate, AcceptsTheGrammarAndNormalizesOrder) {
  const Result<EdgeUpdate> u = parse_update("sample 9 3 12.5 1");
  ASSERT_TRUE(u.is_ok()) << u.status().to_string();
  EXPECT_EQ(u.value().a.value(), 3);  // normalized a < b
  EXPECT_EQ(u.value().b.value(), 9);
  EXPECT_EQ(u.value().rtt_ms, 12.5);
  EXPECT_TRUE(u.value().lost);
}

TEST(ServeJournalParseUpdate, RejectsEveryMalformedFieldWithAReason) {
  for (const char* bad : {
           "",                        // empty
           "sample",                  // missing everything
           "probe 1 2 3.0 0",         // wrong keyword
           "sample 1 2 3.0",          // missing lost flag
           "sample 1 2 3.0 0 extra",  // trailing junk
           "sample x 2 3.0 0",        // non-numeric host
           "sample 1 2 fast 0",       // non-numeric rtt
           "sample 1 2 -3.0 0",       // negative rtt
           "sample 1 2 nan 0",        // non-finite rtt
           "sample 1 2 inf 0",        // non-finite rtt
           "sample 1 1 3.0 0",        // identical hosts
           "sample 1 2 3.0 2",        // lost not in {0,1}
       }) {
    const Result<EdgeUpdate> u = parse_update(bad);
    EXPECT_FALSE(u.is_ok()) << "accepted: " << bad;
    if (!u.is_ok()) {
      EXPECT_EQ(u.status().code(), ErrorCode::kInvalidArgument) << bad;
      EXPECT_FALSE(u.status().message().empty()) << bad;
    }
  }
}

// ---- State snapshot (PSSV) ----------------------------------------------

core::PathTable small_table() {
  meas::Dataset ds = test::make_dataset(3);
  test::add_invocations(ds, 0, 1, 10.0, 3);
  test::add_invocations(ds, 0, 2, 20.0, 3);
  test::add_invocations(ds, 1, 2, 30.0, 3);
  return core::PathTable::build(ds, test::min_samples(3));
}

TEST(ServeJournalState, CapturesAndRestoresMomentsBitExactly) {
  core::PathTable table = small_table();
  core::PathEdge* e = table.find_mutable(topo::HostId{0}, topo::HostId{1});
  ASSERT_NE(e, nullptr);
  e->rtt.add(99.5);
  e->loss.add(1.0);
  ++e->invocations;

  const ServeStateImage image = capture_serve_state(table, 17);
  EXPECT_EQ(image.seq, 17u);
  EXPECT_EQ(image.edges.size(), table.edges().size());

  // Restore into a freshly built (pre-update) table: every moment must land.
  core::PathTable fresh = small_table();
  ASSERT_TRUE(restore_serve_state(image, fresh).is_ok());
  const core::PathEdge* restored =
      fresh.find(topo::HostId{0}, topo::HostId{1});
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->rtt.raw().n, e->rtt.raw().n);
  EXPECT_EQ(restored->rtt.raw().mean, e->rtt.raw().mean);
  EXPECT_EQ(restored->rtt.raw().m2, e->rtt.raw().m2);
  EXPECT_EQ(restored->loss.raw().mean, e->loss.raw().mean);
  EXPECT_EQ(restored->invocations, e->invocations);
}

TEST(ServeJournalState, SerializedImageRoundTrips) {
  const core::PathTable table = small_table();
  const ServeStateImage image = capture_serve_state(table, 5);
  const std::string bytes = serialize_serve_state(image, kPrint);
  const Result<ServeStateImage> parsed = parse_serve_state(bytes, kPrint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seq, 5u);
  ASSERT_EQ(parsed.value().edges.size(), image.edges.size());
  for (std::size_t i = 0; i < image.edges.size(); ++i) {
    EXPECT_EQ(parsed.value().edges[i].a, image.edges[i].a);
    EXPECT_EQ(parsed.value().edges[i].b, image.edges[i].b);
    EXPECT_EQ(parsed.value().edges[i].rtt.mean, image.edges[i].rtt.mean);
    EXPECT_EQ(parsed.value().edges[i].loss.m2, image.edges[i].loss.m2);
  }
}

TEST(ServeJournalState, ParseRejectsCorruptionAndForeignFingerprints) {
  const core::PathTable table = small_table();
  const std::string bytes =
      serialize_serve_state(capture_serve_state(table, 5), kPrint);

  EXPECT_FALSE(parse_serve_state(bytes, kPrint + 1).is_ok());
}

TEST(ServeJournalState, RestoreRejectsMismatchedEdgeSets) {
  const core::PathTable table = small_table();
  ServeStateImage image = capture_serve_state(table, 1);
  image.edges.pop_back();
  core::PathTable target = small_table();
  EXPECT_FALSE(restore_serve_state(image, target).is_ok());

  ServeStateImage renamed = capture_serve_state(table, 1);
  renamed.edges[0].a = 999;
  EXPECT_FALSE(restore_serve_state(renamed, target).is_ok());
}

// ---- JournalWriter -------------------------------------------------------

TEST(ServeJournalWriter, AppendsScanBackAndTornTailIsRepairedByOffset) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/psjl_writer_test.journal";
  ASSERT_TRUE(
      write_file_atomic(path, serialize_journal_header(kPrint, 0, 1)).is_ok());

  JournalWriter writer;
  ASSERT_TRUE(writer.open(path, kJournalHeaderBytes).is_ok());
  ASSERT_TRUE(writer.append(make_record(1, 0, 1, 5.0, false)).is_ok());
  ASSERT_TRUE(writer.append(make_record(2, 1, 2, 6.0, true)).is_ok());
  writer.close();

  Result<std::string> bytes = read_file(path);
  ASSERT_TRUE(bytes.is_ok());
  JournalScan scan = scan_journal(bytes.value(), kPrint);
  ASSERT_TRUE(scan.usable);
  EXPECT_EQ(scan.records.size(), 2u);

  // Re-opening at the first record's end simulates torn-tail repair: the
  // second record is cut away and a new append lands where it was.
  const std::size_t one_record = kJournalHeaderBytes +
                                 (scan.valid_bytes - kJournalHeaderBytes) / 2;
  ASSERT_TRUE(writer.open(path, one_record).is_ok());
  ASSERT_TRUE(writer.append(make_record(2, 0, 2, 7.0, false)).is_ok());
  writer.close();

  bytes = read_file(path);
  ASSERT_TRUE(bytes.is_ok());
  scan = scan_journal(bytes.value(), kPrint);
  ASSERT_TRUE(scan.usable);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].update.rtt_ms, 7.0);
  EXPECT_FALSE(scan.truncated);
}

TEST(ServeJournalWriter, OpenFailsCleanlyOnMissingFile) {
  JournalWriter writer;
  const Status s =
      writer.open(::testing::TempDir() + "/no/such/dir/journal", 0);
  EXPECT_FALSE(s.is_ok());
  EXPECT_FALSE(writer.is_open());
}

}  // namespace
}  // namespace pathsel::serve
