// Differential/golden equivalence harness for the columnar results core.
//
// The columnar results core promises to be lossless: pairs -> columns ->
// pairs reproduces every PairResult field bit for bit, the figure and
// confidence sweeps over the columns are thread-count invariant,
// analyze_with_coverage hands back exactly the transposed checked sweep,
// serialize -> parse -> serialize is byte-stable, and every malformed binary
// file is rejected with an explanatory Status.  This suite
// locks each promise against seeded random corpora spanning sizes, metrics,
// D2-degraded datasets and kNoRelay edges, at 1, 4 and 8 worker threads —
// the same discipline as dense_kernel_diff_test.cc.
#include "core/result_columns.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/confidence.h"
#include "core/coverage.h"
#include "core/dense_kernel.h"
#include "core/figures.h"
#include "meas/catalog.h"
#include "test_util.h"
#include "util/atomic_io.h"
#include "util/rng.h"

namespace pathsel::core {
namespace {

using test::add_invocations;
using test::make_dataset;
using test::min_samples;

// Bit-level double equality: distinguishes +0.0 from -0.0 and compares NaN
// payloads, i.e. exactly the "stored and reloaded" identity the format
// promises (EXPECT_EQ would call 0.0 == -0.0 equal).
void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

// A seeded random corpus: hosts, values and estimates are arbitrary doubles
// (negatives and exact zeros included), via sequences span zero (kNoRelay)
// to three intermediate hosts.
std::vector<PairResult> random_pairs(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<PairResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PairResult r;
    r.a = topo::HostId{static_cast<std::int32_t>(rng.uniform_int(0, 5000))};
    r.b = topo::HostId{static_cast<std::int32_t>(rng.uniform_int(0, 5000))};
    r.default_value = rng.uniform(-10.0, 500.0);
    r.alternate_value = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-10.0, 500.0);
    r.default_estimate = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 25.0),
                          rng.uniform(0.0, 1.0)};
    r.alternate_estimate = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 25.0),
                            rng.uniform(0.0, 1.0)};
    const auto hops = static_cast<std::size_t>(rng.uniform_int(0, 3));
    for (std::size_t h = 0; h < hops; ++h) {
      r.via.push_back(
          topo::HostId{static_cast<std::int32_t>(rng.uniform_int(0, 5000))});
    }
    out.push_back(std::move(r));
  }
  return out;
}

void expect_pairs_identical(const std::vector<PairResult>& a,
                            const std::vector<PairResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "pair index " << i);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].via, b[i].via);
    expect_same_bits(a[i].default_value, b[i].default_value);
    expect_same_bits(a[i].alternate_value, b[i].alternate_value);
    expect_same_bits(a[i].default_estimate.mean, b[i].default_estimate.mean);
    expect_same_bits(a[i].default_estimate.var_of_mean,
                     b[i].default_estimate.var_of_mean);
    expect_same_bits(a[i].default_estimate.dof_denom,
                     b[i].default_estimate.dof_denom);
    expect_same_bits(a[i].alternate_estimate.mean,
                     b[i].alternate_estimate.mean);
    expect_same_bits(a[i].alternate_estimate.var_of_mean,
                     b[i].alternate_estimate.var_of_mean);
    expect_same_bits(a[i].alternate_estimate.dof_denom,
                     b[i].alternate_estimate.dof_denom);
  }
}

// Recomputes the trailing CRC after a structural tamper, so the parser's
// structural validation — not the checksum — is what rejects the file.
void fix_crc(std::string& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t crc =
      crc32(std::string_view{bytes}.substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xffu);
  }
}

void expect_rejected(std::string_view bytes, const char* what) {
  SCOPED_TRACE(what);
  const auto parsed = parse_result_columns(bytes);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
  EXPECT_FALSE(parsed.status().message().empty());
}

TEST(ResultColumns, RoundTripBitIdentityAcrossSizes) {
  std::uint64_t seed = 9101;
  for (const std::size_t n : {0u, 1u, 2u, 37u, 256u, 1500u}) {
    SCOPED_TRACE(testing::Message() << "corpus size " << n);
    const auto pairs = random_pairs(n, seed++);
    for (const Metric metric :
         {Metric::kRtt, Metric::kLoss, Metric::kPropagation}) {
      const ResultColumns columns = from_pairs(pairs, metric);
      EXPECT_EQ(columns.metric, metric);
      ASSERT_EQ(columns.size(), n);
      expect_pairs_identical(pairs, to_pairs(columns));
    }
  }
}

TEST(ResultColumns, ColumnsMirrorPairAccessors) {
  const auto pairs = random_pairs(64, 42);
  const ResultColumns columns = from_pairs(pairs, Metric::kRtt);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_same_bits(columns.improvement(i),
                     pairs[i].default_value - pairs[i].alternate_value);
    expect_same_bits(columns.ratio(i),
                     pairs[i].alternate_value > 0.0
                         ? pairs[i].default_value / pairs[i].alternate_value
                         : 1.0);
    EXPECT_EQ(columns.relay[i],
              pairs[i].via.empty() ? kNoRelay : pairs[i].via.front().value());
    EXPECT_EQ(columns.hop_count[i],
              static_cast<std::int32_t>(pairs[i].via.size()));
    EXPECT_EQ(columns.significance[i],
              static_cast<std::int8_t>(SignificanceClass::kUnclassified));
  }
}

TEST(ResultColumns, SerializeParseSerializeByteStable) {
  std::uint64_t seed = 1201;
  for (const std::size_t n : {0u, 1u, 33u, 700u}) {
    SCOPED_TRACE(testing::Message() << "corpus size " << n);
    std::vector<ResultColumns> sets;
    sets.push_back(from_pairs(random_pairs(n, seed++), Metric::kRtt));
    sets.push_back(from_pairs(random_pairs(n / 2, seed++), Metric::kLoss));
    const std::string bytes = serialize_result_columns(sets);
    const auto parsed = parse_result_columns(bytes);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    ASSERT_EQ(parsed.value().size(), sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s) {
      EXPECT_EQ(parsed.value()[s].metric, sets[s].metric);
      EXPECT_EQ(parsed.value()[s].via_offset, sets[s].via_offset);
      expect_pairs_identical(to_pairs(sets[s]), to_pairs(parsed.value()[s]));
    }
    EXPECT_EQ(serialize_result_columns(parsed.value()), bytes);
  }
}

TEST(ResultColumns, SerializationIsDeterministic) {
  const auto pairs = random_pairs(100, 77);
  const ResultColumns a = from_pairs(pairs, Metric::kLoss);
  const ResultColumns b = from_pairs(pairs, Metric::kLoss);
  EXPECT_EQ(serialize_result_columns({&a, 1}), serialize_result_columns({&b, 1}));
}

TEST(ResultColumns, SignificanceColumnSurvivesTheRoundTrip) {
  ResultColumns columns = from_pairs(random_pairs(50, 4), Metric::kRtt);
  ASSERT_TRUE(annotate_significance(columns).is_ok());
  const std::string bytes = serialize_result_columns({&columns, 1});
  const auto parsed = parse_result_columns(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().front().significance, columns.significance);
}

// --- the sweeps over the columns: thread-count invariant, in bits ---

TEST(ResultColumns, ThreadCountInvariance) {
  const ResultColumns columns = from_pairs(random_pairs(900, 8801), Metric::kRtt);
  const auto cdf1 = improvement_cdf(columns, 1);
  const auto tally1 = classify_significance(columns, 0.95, 1);
  ResultColumns annotated1 = columns;
  ASSERT_TRUE(annotate_significance(annotated1, 0.95, 1).is_ok());
  for (const int threads : {4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const auto cdf_t = improvement_cdf(columns, threads);
    ASSERT_EQ(cdf_t.size(), cdf1.size());
    for (std::size_t i = 0; i < cdf_t.size(); ++i) {
      expect_same_bits(cdf1.sorted_values()[i], cdf_t.sorted_values()[i]);
    }
    const auto tally_t = classify_significance(columns, 0.95, threads);
    expect_same_bits(tally1.better, tally_t.better);
    expect_same_bits(tally1.worse, tally_t.worse);
    expect_same_bits(tally1.indeterminate, tally_t.indeterminate);
    expect_same_bits(tally1.zero, tally_t.zero);
    ResultColumns annotated_t = columns;
    ASSERT_TRUE(annotate_significance(annotated_t, 0.95, threads).is_ok());
    EXPECT_EQ(annotated1.significance, annotated_t.significance);
  }
}

TEST(ResultColumns, AnnotateAgreesWithTally) {
  ResultColumns columns = from_pairs(random_pairs(400, 6201), Metric::kLoss);
  const auto tally = classify_significance(columns, 0.95, 1);
  ASSERT_TRUE(annotate_significance(columns, 0.95, 1).is_ok());
  std::size_t better = 0, worse = 0, indet = 0, zero = 0;
  for (const std::int8_t s : columns.significance) {
    switch (static_cast<SignificanceClass>(s)) {
      case SignificanceClass::kBetter: ++better; break;
      case SignificanceClass::kWorse: ++worse; break;
      case SignificanceClass::kIndeterminate: ++indet; break;
      case SignificanceClass::kZero: ++zero; break;
      case SignificanceClass::kUnclassified:
        ADD_FAILURE() << "annotate left a pair unclassified";
        break;
    }
  }
  const auto n = static_cast<double>(columns.size());
  EXPECT_DOUBLE_EQ(tally.better, static_cast<double>(better) / n);
  EXPECT_DOUBLE_EQ(tally.worse, static_cast<double>(worse) / n);
  EXPECT_DOUBLE_EQ(tally.indeterminate, static_cast<double>(indet) / n);
  EXPECT_DOUBLE_EQ(tally.zero, static_cast<double>(zero) / n);
}

// --- real sweeps: analyzer output through the columns, degraded included ---

TEST(ResultColumns, AnalyzeWithCoverageMatchesCheckedSweep) {
  // A complete 4-mesh plus a pendant edge 4-5 that has no alternate.
  auto ds = make_dataset(6);
  add_invocations(ds, 0, 1, 100.0, 3);
  add_invocations(ds, 0, 2, 20.0, 3);
  add_invocations(ds, 1, 2, 20.0, 3);
  add_invocations(ds, 0, 3, 50.0, 3);
  add_invocations(ds, 1, 3, 40.0, 3);
  add_invocations(ds, 2, 3, 30.0, 3);
  add_invocations(ds, 4, 5, 10.0, 3);
  const PathTable table = PathTable::build(ds, min_samples(2));
  for (const Metric metric : {Metric::kRtt, Metric::kLoss}) {
    SCOPED_TRACE(metric_name(metric));
    AnalyzerOptions analyze;
    analyze.metric = metric;
    const auto degraded = analyze_with_coverage(ds, min_samples(2), analyze);
    const auto swept = analyze_alternate_paths_checked(table, analyze);
    ASSERT_TRUE(degraded.is_ok()) << degraded.status().to_string();
    ASSERT_TRUE(swept.is_ok());
    const ResultColumns& columns = degraded.value().columns;
    const ResultColumns expected = from_pairs(swept.value(), metric);
    EXPECT_EQ(columns.metric, metric);
    EXPECT_EQ(serialize_result_columns({&columns, 1}),
              serialize_result_columns({&expected, 1}));

    const CoverageSummary& coverage = degraded.value().coverage;
    EXPECT_EQ(coverage.covered_pairs, 7u);
    EXPECT_EQ(coverage.usable_edges, 7u);
    EXPECT_EQ(coverage.analyzable_edges, 6u);
    EXPECT_EQ(coverage.disconnected_edges, 1u);
  }
}

TEST(ResultColumns, DegradedDatasetRoundTripsThroughTheBinaryFormat) {
  // A fault-injected D2 slice: lost measurements, under-sampled edges and
  // disconnected pairs — the degraded shapes the format must carry.
  meas::CatalogConfig cfg;
  cfg.scale = 0.02;
  cfg.fault_intensity = 0.3;
  cfg.fault_seed = 11;
  meas::Catalog catalog{cfg};
  const auto swept =
      analyze_with_coverage(catalog.by_name("D2"), min_samples(2));
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  const ResultColumns& columns = swept.value().columns;
  ASSERT_GT(columns.size(), 0u);
  const std::string bytes = serialize_result_columns({&columns, 1});
  const auto parsed = parse_result_columns(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  expect_pairs_identical(to_pairs(columns), to_pairs(parsed.value().front()));
  EXPECT_EQ(serialize_result_columns(parsed.value()), bytes);
}

// --- file I/O and rejection of malformed input ---

TEST(ResultColumns, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pathsel_result_columns_test.psrc")
          .string();
  const ResultColumns columns = from_pairs(random_pairs(80, 31), Metric::kRtt);
  ASSERT_TRUE(write_result_columns(path, {&columns, 1}).is_ok());
  const auto read_back = read_result_columns(path);
  ASSERT_TRUE(read_back.is_ok()) << read_back.status().to_string();
  ASSERT_EQ(read_back.value().size(), 1u);
  expect_pairs_identical(to_pairs(columns), to_pairs(read_back.value().front()));
  std::filesystem::remove(path);
}

TEST(ResultColumns, MissingFileIsAnIoError) {
  const auto read_back = read_result_columns("/nonexistent/results.psrc");
  ASSERT_FALSE(read_back.is_ok());
  EXPECT_EQ(read_back.status().code(), ErrorCode::kIoError);
}

TEST(ResultColumns, RejectsMalformedInput) {
  const ResultColumns columns = from_pairs(random_pairs(10, 99), Metric::kRtt);
  const std::string good = serialize_result_columns({&columns, 1});
  ASSERT_TRUE(parse_result_columns(good).is_ok());

  expect_rejected("", "empty input");
  expect_rejected(std::string_view{good}.substr(0, 8), "header-only prefix");
  for (const std::size_t cut :
       {std::size_t{15}, std::size_t{16}, std::size_t{40}, good.size() - 1}) {
    expect_rejected(std::string_view{good}.substr(0, cut), "truncated file");
  }

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "bad magic");

  std::string newer = good;
  newer[4] = static_cast<char>(kResultColumnsVersion + 1);
  fix_crc(newer);
  {
    const auto parsed = parse_result_columns(newer);
    ASSERT_FALSE(parsed.is_ok());
    // Version rejection must explain itself, not just say "bad file".
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos)
        << parsed.status().message();
  }

  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x10);
  expect_rejected(flipped, "payload corruption is caught by the CRC");

  std::string absurd = good;
  // Pair count (u64 after magic+version+set count+metric, offset 16) claims
  // more entries than the file could hold; must reject before allocating.
  absurd[16] = static_cast<char>(0xff);
  absurd[17] = static_cast<char>(0xff);
  absurd[18] = static_cast<char>(0xff);
  fix_crc(absurd);
  expect_rejected(absurd, "absurd pair count");

  std::string trailing = good;
  trailing.insert(trailing.size() - 4, "!!");
  fix_crc(trailing);
  expect_rejected(trailing, "trailing bytes");

  std::string bad_metric = good;
  bad_metric[12] = static_cast<char>(9);
  fix_crc(bad_metric);
  expect_rejected(bad_metric, "unknown metric tag");
}

TEST(ResultColumns, RejectsStructuralLies) {
  // One pair with one relay: tamper with the derived-consistency fields.
  PairResult r;
  r.a = topo::HostId{1};
  r.b = topo::HostId{2};
  r.via.push_back(topo::HostId{3});
  const std::vector<PairResult> pairs{r};
  const ResultColumns columns = from_pairs(pairs, Metric::kRtt);
  const std::string good = serialize_result_columns({&columns, 1});

  // Layout: 12-byte file header, 4-byte metric, 8-byte n, 8-byte m, then
  // src/dst/relay/hop_count columns of 4 bytes each (n == 1).
  const std::size_t relay_at = 12 + 4 + 8 + 8 + 4 + 4;
  const std::size_t hops_at = relay_at + 4;
  const std::size_t sig_at = hops_at + 4;

  std::string wrong_relay = good;
  wrong_relay[relay_at] = static_cast<char>(99);
  fix_crc(wrong_relay);
  expect_rejected(wrong_relay, "relay disagrees with via");

  std::string negative_hops = good;
  negative_hops[hops_at + 3] = static_cast<char>(0x80);
  fix_crc(negative_hops);
  expect_rejected(negative_hops, "negative hop count");

  std::string short_hops = good;
  short_hops[hops_at] = 0;  // hop sum 0 != via count 1
  fix_crc(short_hops);
  expect_rejected(short_hops, "hop counts do not tile the via column");

  std::string bad_class = good;
  bad_class[sig_at] = static_cast<char>(17);
  fix_crc(bad_class);
  expect_rejected(bad_class, "significance class out of range");
}

}  // namespace
}  // namespace pathsel::core
