// Byte goldens for the on-disk formats: the binary PSRC (result columns),
// PSJL (serve update journal) and PSSV (serve state snapshot), and the text
// .ds dataset rows, campaign checkpoints and matrix cell summaries.
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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>


#include "core/dense_kernel.h"
#include "core/result_columns.h"
#include "matrix/cell.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "serve/journal.h"
#include "test_util.h"

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

// .ds rows print doubles as %.17g: these values sit on both sides of its
// fixed/exponent switches (1e-4 vs 1e-5, 17 vs 18 integer digits) and include
// -0, 0.1 (not exact in binary), and the smallest subnormal.
const double kRtts[] = {0.0,     -0.0,    0.1,
                        5e-324,  1e-4,    1e-5,
                        12345678901234568.0, 1.2345678901234568e+17, 71.25};

meas::Measurement trace_row(std::int64_t when_ms, int src, int dst,
                            std::size_t first_rtt) {
  meas::Measurement m;
  m.when = SimTime::at(Duration::millis(when_ms));
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.completed = true;
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    m.samples[i].lost = i == 1;
    m.samples[i].rtt_ms = kRtts[(first_rtt + i) % std::size(kRtts)];
  }
  return m;
}

meas::Dataset traceroute_fixture() {
  meas::Dataset ds;
  ds.name = "golden trace";
  ds.kind = meas::MeasurementKind::kTraceroute;
  ds.duration = Duration::millis(604800000);
  ds.first_sample_loss_only = true;
  ds.episode_count = 2;
  ds.hosts = {topo::HostId{0}, topo::HostId{3}, topo::HostId{5},
              topo::HostId{2147483647}};
  meas::Measurement a = trace_row(0, 0, 3, 0);
  a.episode = 0;
  a.path = test::intern_path(ds.paths, {7, 0, 2147483647});
  meas::Measurement b = trace_row(604799999, 5, 2147483647, 3);
  b.episode = 1;
  b.attempts = 2;
  b.path = test::intern_path(ds.paths, {701});
  meas::Measurement c = trace_row(60000, 3, 0, 6);
  c.completed = false;
  c.failure = meas::FailureReason::kStuckProbe;
  c.attempts = 255;
  ds.measurements = {a, b, c};
  return ds;
}

meas::Dataset tcp_fixture() {
  meas::Dataset ds;
  ds.name = "golden-tcp";
  ds.kind = meas::MeasurementKind::kTcpTransfer;
  ds.duration = Duration::millis(86400000);
  ds.hosts = {topo::HostId{1}, topo::HostId{4}};
  const double values[][3] = {{123.456, 0.1, 0.0},
                              {5e-324, -0.0, 1.0},
                              {1.2345678901234568e+17, 1e-5, 0.015625},
                              {0.0, 0.0, 0.0}};
  std::int64_t when = 0;
  for (const auto& v : values) {
    meas::Measurement m;
    m.when = SimTime::at(Duration::millis(when));
    when += 1234567;
    m.src = topo::HostId{when % 2 == 0 ? 1 : 4};
    m.dst = topo::HostId{when % 2 == 0 ? 4 : 1};
    m.completed = true;
    m.bandwidth_kBps = v[0];
    m.tcp_rtt_ms = v[1];
    m.tcp_loss_rate = v[2];
    ds.measurements.push_back(m);
  }
  ds.measurements.back().completed = false;
  ds.measurements.back().failure = meas::FailureReason::kEndpointDown;
  return ds;
}

std::string dataset_bytes(const meas::Dataset& ds) {
  std::ostringstream os;
  meas::write_dataset(os, ds);
  return os.str();
}

void expect_same_measurements(const meas::Dataset& got,
                              const meas::Dataset& want) {
  ASSERT_EQ(got.measurements.size(), want.measurements.size());
  for (std::size_t i = 0; i < want.measurements.size(); ++i) {
    const meas::Measurement& g = got.measurements[i];
    const meas::Measurement& w = want.measurements[i];
    EXPECT_EQ(g.when, w.when);
    EXPECT_EQ(g.src, w.src);
    EXPECT_EQ(g.dst, w.dst);
    EXPECT_EQ(g.episode, w.episode);
    EXPECT_EQ(g.completed, w.completed);
    EXPECT_EQ(g.failure, w.failure);
    EXPECT_EQ(g.attempts, w.attempts);
    for (std::size_t s = 0; s < w.samples.size(); ++s) {
      EXPECT_EQ(g.samples[s].lost, w.samples[s].lost);
      EXPECT_EQ(bits(g.samples[s].rtt_ms), bits(w.samples[s].rtt_ms));
    }
    EXPECT_TRUE(std::ranges::equal(got.as_path(g), want.as_path(w)));
    EXPECT_EQ(bits(g.bandwidth_kBps), bits(w.bandwidth_kBps));
    EXPECT_EQ(bits(g.tcp_rtt_ms), bits(w.tcp_rtt_ms));
    EXPECT_EQ(bits(g.tcp_loss_rate), bits(w.tcp_loss_rate));
  }
}

void check_dataset_golden(const std::string& name, const meas::Dataset& ds) {
  const std::string golden = check_golden(name, dataset_bytes(ds));
  std::istringstream is{golden};
  std::string error;
  const std::optional<meas::Dataset> parsed = meas::read_dataset(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name, ds.name);
  EXPECT_EQ(parsed->kind, ds.kind);
  EXPECT_EQ(parsed->duration, ds.duration);
  EXPECT_EQ(parsed->first_sample_loss_only, ds.first_sample_loss_only);
  EXPECT_EQ(parsed->episode_count, ds.episode_count);
  EXPECT_EQ(parsed->hosts, ds.hosts);
  expect_same_measurements(*parsed, ds);
  EXPECT_TRUE(dataset_bytes(*parsed) == golden);
}

TEST(FormatGolden, DatasetTracerouteBytes) {
  check_dataset_golden("dataset_traceroute.ds", traceroute_fixture());
}

TEST(FormatGolden, DatasetTcpBytes) {
  check_dataset_golden("dataset_tcp.ds", tcp_fixture());
}

meas::CampaignCheckpoint checkpoint_fixture() {
  meas::CampaignCheckpoint cp;
  cp.dataset_name = "golden trace";
  cp.now = SimTime::at(Duration::millis(43200000));
  cp.next_seq = 17;
  cp.episode_count = 2;
  cp.rng_state = {1, 0xffffffffffffffffULL, 0x0123456789abcdefULL, 0};
  cp.server_rng_states = {{2, 3, 5, 7}};
  cp.injector_epoch = 9;
  meas::CampaignEvent retry;
  retry.t = SimTime::at(Duration::millis(43200500));
  retry.seq = 16;
  retry.kind = meas::CampaignEventKind::kRetry;
  retry.a = 3;
  retry.b = 0;
  retry.first = SimTime::at(Duration::millis(43190000));
  retry.episode = 1;
  retry.tried = 2;
  meas::CampaignEvent next;
  next.t = SimTime::at(Duration::millis(43260000));
  next.seq = 12;
  cp.pending = {retry, next};
  meas::Dataset rows = traceroute_fixture();
  cp.measurements = rows.measurements;
  cp.paths = rows.paths;
  return cp;
}

TEST(FormatGolden, CheckpointBytes) {
  const meas::CampaignCheckpoint cp = checkpoint_fixture();
  const std::string golden = check_golden(
      "checkpoint.txt",
      meas::serialize_checkpoint(cp, meas::MeasurementKind::kTraceroute,
                                 kFingerprint));

  const Result<meas::CampaignCheckpoint> parsed = meas::parse_checkpoint(
      golden, meas::MeasurementKind::kTraceroute, kFingerprint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const meas::CampaignCheckpoint& got = parsed.value();
  EXPECT_EQ(got.dataset_name, cp.dataset_name);
  EXPECT_EQ(got.now, cp.now);
  EXPECT_EQ(got.next_seq, cp.next_seq);
  EXPECT_EQ(got.rng_state, cp.rng_state);
  EXPECT_EQ(got.server_rng_states, cp.server_rng_states);
  ASSERT_EQ(got.pending.size(), cp.pending.size());
  EXPECT_EQ(got.pending[0].first, cp.pending[0].first);
  EXPECT_EQ(got.pending[0].tried, cp.pending[0].tried);
  meas::Dataset got_rows;
  got_rows.measurements = got.measurements;
  got_rows.paths = got.paths;
  meas::Dataset want_rows;
  want_rows.measurements = cp.measurements;
  want_rows.paths = cp.paths;
  expect_same_measurements(got_rows, want_rows);
  EXPECT_TRUE(meas::serialize_checkpoint(got, meas::MeasurementKind::kTraceroute,
                                         kFingerprint) == golden);
}

// Cell summaries print fingerprints as 16 hex digits and doubles as %.17g:
// the fixture has fingerprints with leading zeros, -0, and doubles on both
// sides of the fixed/exponent switch (1e-4 vs 1e-5, 17 vs 18 digits).
matrix::CellSummary cell_summary_fixture() {
  matrix::CellSummary s;
  s.grid_fp = 0x00000000000000abULL;
  s.cell_fp = 0x0123456789abcdefULL;
  s.index = 7;
  s.dataset = "UW4-A";
  s.fault = 0.1;
  s.metric = "loss";
  s.policy = "one-hop/dense";
  s.min_samples = 30;
  s.seed = 18446744073709551615ULL;
  s.hosts = 36;
  s.measurements = 12345;
  s.completed = 12000;
  s.usable_edges = 600;
  s.pairs = 1260;
  s.coverage = -0.0;
  s.better = 1e-4;
  s.has_sig = true;
  s.sig_better = 1e-5;
  s.sig_indeterminate = 12345678901234568.0;
  s.sig_worse = 1.2345678901234568e+17;
  s.found_full = 0.0;
  s.artifacts.push_back({"cells/cell-00007-0123456789abcdef/results.psrc",
                         4096, 0x0000beefu});
  s.artifacts.push_back({"cells/cell-00007-0123456789abcdef/extra.tsv", 0,
                         0xdeadbeefu});
  return s;
}

void expect_same_summary(const matrix::CellSummary& got,
                         const matrix::CellSummary& want) {
  EXPECT_EQ(got.grid_fp, want.grid_fp);
  EXPECT_EQ(got.cell_fp, want.cell_fp);
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.dataset, want.dataset);
  EXPECT_EQ(bits(got.fault), bits(want.fault));
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.min_samples, want.min_samples);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.error, want.error);
  if (want.ok) {
    EXPECT_EQ(got.hosts, want.hosts);
    EXPECT_EQ(got.measurements, want.measurements);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.usable_edges, want.usable_edges);
    EXPECT_EQ(got.pairs, want.pairs);
    EXPECT_EQ(bits(got.coverage), bits(want.coverage));
    EXPECT_EQ(bits(got.better), bits(want.better));
    EXPECT_EQ(got.has_sig, want.has_sig);
    EXPECT_EQ(bits(got.sig_better), bits(want.sig_better));
    EXPECT_EQ(bits(got.sig_indeterminate), bits(want.sig_indeterminate));
    EXPECT_EQ(bits(got.sig_worse), bits(want.sig_worse));
    EXPECT_EQ(bits(got.found_full), bits(want.found_full));
  }
  ASSERT_EQ(got.artifacts.size(), want.artifacts.size());
  for (std::size_t i = 0; i < want.artifacts.size(); ++i) {
    EXPECT_EQ(got.artifacts[i].rel_path, want.artifacts[i].rel_path);
    EXPECT_EQ(got.artifacts[i].size, want.artifacts[i].size);
    EXPECT_EQ(got.artifacts[i].crc, want.artifacts[i].crc);
  }
}

void check_cell_summary_golden(const std::string& name,
                               const matrix::CellSummary& s) {
  const std::string golden =
      check_golden(name, matrix::serialize_cell_summary(s));
  const Result<matrix::CellSummary> parsed = matrix::parse_cell_summary(golden);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  expect_same_summary(parsed.value(), s);
  EXPECT_TRUE(matrix::serialize_cell_summary(parsed.value()) == golden);
}

TEST(FormatGolden, CellSummaryOkBytes) {
  check_cell_summary_golden("cell_summary_ok.txt", cell_summary_fixture());
}

TEST(FormatGolden, CellSummaryDegradedBytes) {
  matrix::CellSummary s = cell_summary_fixture();
  s.ok = false;
  s.error = "invalid argument: disjoint k=5 needs at least 7 hosts";
  s.artifacts.pop_back();
  check_cell_summary_golden("cell_summary_degraded.txt", s);
}

}  // namespace
}  // namespace pathsel
