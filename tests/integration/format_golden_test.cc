// Byte goldens for the binary on-disk formats: PSRC (result columns), PSJL
// (serve update journal) and PSSV (serve state snapshot).
//
// The fixtures are literal values with no analysis behind them, so neither
// compiler nor floating-point choices can move the bytes.  Round-trip and
// fuzz suites would still pass if a refactor changed a layout the same way
// on both the write and the read side; these tests would not.  Each format
// is checked in both directions: the writer must reproduce the golden bytes
// exactly, and the reader must recover the fixture's values from them.
//
// Regenerate (only for an intended format change, which also bumps the
// format's version):  PATHSEL_UPDATE_GOLDEN=1 ctest -R FormatGolden
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/dense_kernel.h"
#include "core/result_columns.h"
#include "serve/journal.h"

namespace pathsel {
namespace {

std::string golden_path(const std::string& name) {
  return std::string{PATHSEL_GOLDEN_DIR} + "/formats/" + name;
}

// Compares `bytes` with the golden file, or rewrites the golden when
// PATHSEL_UPDATE_GOLDEN is set.  Returns the golden bytes.
std::string check_golden(const std::string& name, const std::string& bytes) {
  const std::string path = golden_path(name);
  const char* update = std::getenv("PATHSEL_UPDATE_GOLDEN");
  if (update != nullptr && std::string{update} != "0") {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return bytes;
  }
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(bytes.size(), golden.size()) << name;
  EXPECT_TRUE(bytes == golden) << name << " bytes differ from the golden";
  return golden;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::uint64_t kNanPayloadBits = 0x7ff80000deadbeefULL;
const double kNanPayload = std::bit_cast<double>(kNanPayloadBits);

std::vector<core::ResultColumns> psrc_fixture() {
  core::ResultColumns rtt;
  rtt.metric = core::Metric::kRtt;
  rtt.src = {0, 2};
  rtt.dst = {1, 5};
  rtt.relay = {core::kNoRelay, 3};
  rtt.hop_count = {0, 2};
  rtt.significance = {
      static_cast<std::int8_t>(core::SignificanceClass::kUnclassified),
      static_cast<std::int8_t>(core::SignificanceClass::kBetter)};
  rtt.default_value = {-0.0, 120.5};
  rtt.alternate_value = {kNanPayload, 80.25};
  rtt.default_mean = {1.0, 119.75};
  rtt.default_var = {0.0, 2.5};
  rtt.default_dof_denom = {std::numeric_limits<double>::infinity(), 0.125};
  rtt.alternate_mean = {-1.5, 81.0};
  rtt.alternate_var = {1e-300, 3.0};
  rtt.alternate_dof_denom = {5e-324, 0.5};
  rtt.via = {3, 4};
  rtt.via_offset = {0, 0};

  core::ResultColumns loss;
  loss.metric = core::Metric::kLoss;
  loss.src = {1};
  loss.dst = {4};
  loss.relay = {7};
  loss.hop_count = {1};
  loss.significance = {static_cast<std::int8_t>(core::SignificanceClass::kZero)};
  loss.default_value = {0.03};
  loss.alternate_value = {0.01};
  loss.default_mean = {0.031};
  loss.default_var = {1e-6};
  loss.default_dof_denom = {2e-12};
  loss.alternate_mean = {0.011};
  loss.alternate_var = {4e-7};
  loss.alternate_dof_denom = {3e-13};
  loss.via = {7};
  loss.via_offset = {0};
  return {rtt, loss};
}

TEST(FormatGolden, ResultColumnsPsrcBytes) {
  const std::vector<core::ResultColumns> sets = psrc_fixture();
  const std::string golden =
      check_golden("psrc.bin", core::serialize_result_columns(sets));

  const Result<std::vector<core::ResultColumns>> parsed =
      core::parse_result_columns(golden);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const std::vector<core::ResultColumns>& got = parsed.value();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].metric, core::Metric::kRtt);
  EXPECT_EQ(got[1].metric, core::Metric::kLoss);
  EXPECT_EQ(got[0].relay, sets[0].relay);
  EXPECT_EQ(got[0].via, sets[0].via);
  EXPECT_EQ(got[0].via_offset, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(got[0].significance, sets[0].significance);
  EXPECT_EQ(bits(got[0].default_value[0]), bits(-0.0));
  EXPECT_EQ(bits(got[0].alternate_value[0]), kNanPayloadBits);
  EXPECT_EQ(bits(got[0].alternate_dof_denom[0]), bits(5e-324));
  EXPECT_EQ(got[1].via, sets[1].via);
  EXPECT_EQ(bits(got[1].alternate_dof_denom[0]), bits(3e-13));
  EXPECT_TRUE(core::serialize_result_columns(got) == golden);
}

constexpr std::uint64_t kFingerprint = 0x0123456789abcdefULL;

std::vector<serve::JournalRecord> psjl_records() {
  std::vector<serve::JournalRecord> records(3);
  records[0].seq = 5;
  records[0].update = {topo::HostId{0}, topo::HostId{3}, 12.5, false};
  records[1].seq = 6;
  records[1].update = {topo::HostId{2}, topo::HostId{7}, 0.0, true};
  records[2].seq = 7;
  records[2].update = {topo::HostId{1}, topo::HostId{2}, 1e-300, false};
  return records;
}

TEST(FormatGolden, ServeJournalPsjlBytes) {
  const std::vector<serve::JournalRecord> records = psjl_records();
  std::string bytes = serve::serialize_journal_header(kFingerprint, 2, 5);
  for (const serve::JournalRecord& r : records) {
    bytes += serve::serialize_journal_record(r);
  }
  const std::string golden = check_golden("psjl.bin", bytes);

  const serve::JournalScan scan = serve::scan_journal(golden, kFingerprint);
  ASSERT_TRUE(scan.usable) << scan.reject_reason;
  EXPECT_FALSE(scan.truncated) << scan.truncation_reason;
  EXPECT_EQ(scan.generation, 2u);
  EXPECT_EQ(scan.start_seq, 5u);
  EXPECT_EQ(scan.valid_bytes, golden.size());
  ASSERT_EQ(scan.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, records[i].seq);
    EXPECT_EQ(scan.records[i].update.a, records[i].update.a);
    EXPECT_EQ(scan.records[i].update.b, records[i].update.b);
    EXPECT_EQ(bits(scan.records[i].update.rtt_ms),
              bits(records[i].update.rtt_ms));
    EXPECT_EQ(scan.records[i].update.lost, records[i].update.lost);
  }
}

serve::ServeStateImage pssv_fixture() {
  serve::ServeStateImage image;
  image.seq = 42;
  serve::ServeStateImage::EdgeState e0;
  e0.a = 0;
  e0.b = 1;
  e0.invocations = 17;
  e0.rtt = {16, 48.5, 210.25, 40.0, 61.0};
  e0.loss = {17, 0.0588, 0.9412, 0.0, 1.0};
  serve::ServeStateImage::EdgeState e1;
  e1.a = 3;
  e1.b = 9;
  e1.invocations = -1;
  e1.rtt = {0, 0.0, -0.0, kNanPayload, -1e308};
  e1.loss = {std::numeric_limits<std::int64_t>::max(), 1e-310, 2.0, 0.5, 0.5};
  image.edges = {e0, e1};
  return image;
}

void expect_raw_bits(const stats::Summary::Raw& got,
                     const stats::Summary::Raw& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.m2), bits(want.m2));
  EXPECT_EQ(bits(got.min), bits(want.min));
  EXPECT_EQ(bits(got.max), bits(want.max));
}

TEST(FormatGolden, ServeStatePssvBytes) {
  const serve::ServeStateImage image = pssv_fixture();
  const std::string golden =
      check_golden("pssv.bin", serve::serialize_serve_state(image, kFingerprint));

  const Result<serve::ServeStateImage> parsed =
      serve::parse_serve_state(golden, kFingerprint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const serve::ServeStateImage& got = parsed.value();
  EXPECT_EQ(got.seq, image.seq);
  ASSERT_EQ(got.edges.size(), image.edges.size());
  for (std::size_t i = 0; i < image.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].a, image.edges[i].a);
    EXPECT_EQ(got.edges[i].b, image.edges[i].b);
    EXPECT_EQ(got.edges[i].invocations, image.edges[i].invocations);
    expect_raw_bits(got.edges[i].rtt, image.edges[i].rtt);
    expect_raw_bits(got.edges[i].loss, image.edges[i].loss);
  }
}

}  // namespace
}  // namespace pathsel
