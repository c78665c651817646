#include "meas/serialize.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "meas/catalog.h"
#include "test_util.h"
#include "util/atomic_io.h"

namespace pathsel::meas {
namespace {

// One file per test: ctest runs the tests in parallel processes.
std::string temp_path() {
  return ::testing::TempDir() + "/serialize_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".ds";
}

// Saves `ds` and loads it back.
Result<Dataset> round_trip(const Dataset& ds) {
  const Status saved = save_dataset(temp_path(), ds);
  if (!saved.is_ok()) return saved;
  return load_dataset(temp_path());
}

// Loads `text` as a dataset file; the error names the reason.
Result<Dataset> load_text(std::string_view text) {
  const Status wrote = write_file_atomic(temp_path(), text);
  if (!wrote.is_ok()) return wrote;
  return load_dataset(temp_path());
}

std::string text_of(const Dataset& ds) {
  std::string out;
  write_dataset_chunks(ds, [&out](std::string_view chunk) { out += chunk; });
  return out;
}

Dataset sample_traceroute() {
  auto ds = test::make_dataset(3);
  ds.name = "demo";
  test::add_invocation(ds, 0, 1, {10.5, -1.0, 30.25},
                       SimTime::start() + Duration::seconds(12));
  ds.measurements.back().path = test::intern_path(ds.paths, {7, 3});
  test::add_invocation(ds, 2, 0, {99.0, 98.0, 97.0},
                       SimTime::start() + Duration::minutes(2));
  Measurement failed;
  failed.when = SimTime::start() + Duration::minutes(3);
  failed.src = topo::HostId{1};
  failed.dst = topo::HostId{2};
  failed.completed = false;
  ds.measurements.push_back(failed);
  return ds;
}

TEST(Serialize, TracerouteRoundTrip) {
  const Dataset original = sample_traceroute();
  const Result<Dataset> loaded = round_trip(original);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().name, original.name);
  EXPECT_EQ(loaded.value().kind, original.kind);
  EXPECT_EQ(loaded.value().duration, original.duration);
  EXPECT_EQ(loaded.value().hosts, original.hosts);
  ASSERT_EQ(loaded.value().measurements.size(), original.measurements.size());
  for (std::size_t i = 0; i < original.measurements.size(); ++i) {
    const auto& a = original.measurements[i];
    const auto& b = loaded.value().measurements[i];
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_TRUE(
        std::ranges::equal(original.as_path(a), loaded.value().as_path(b)));
    for (std::size_t s = 0; s < a.samples.size(); ++s) {
      EXPECT_EQ(a.samples[s].lost, b.samples[s].lost);
      EXPECT_DOUBLE_EQ(a.samples[s].rtt_ms, b.samples[s].rtt_ms);
    }
  }
}

TEST(Serialize, TcpRoundTrip) {
  auto ds = test::make_dataset(2);
  ds.kind = MeasurementKind::kTcpTransfer;
  test::add_transfer(ds, 0, 1, 123.456, 78.9, 0.0123);
  const Result<Dataset> loaded = round_trip(ds);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().measurements.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.value().measurements[0].bandwidth_kBps, 123.456);
  EXPECT_DOUBLE_EQ(loaded.value().measurements[0].tcp_rtt_ms, 78.9);
  EXPECT_DOUBLE_EQ(loaded.value().measurements[0].tcp_loss_rate, 0.0123);
}

TEST(Serialize, EpisodesPreserved) {
  auto ds = test::make_dataset(3);
  ds.episode_count = 2;
  test::add_invocation(ds, 0, 1, {10.0, 10.0, 10.0}, SimTime::start(), 1);
  const Result<Dataset> loaded = round_trip(ds);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().episode_count, 2);
  EXPECT_EQ(loaded.value().measurements[0].episode, 1);
}

TEST(Serialize, FlagsPreserved) {
  auto ds = test::make_dataset(2);
  ds.first_sample_loss_only = true;
  const Result<Dataset> loaded = round_trip(ds);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().first_sample_loss_only);
}

TEST(Serialize, RejectsBadHeader) {
  const Result<Dataset> loaded = load_text("garbage\n");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos);
}

TEST(Serialize, RejectsMissingField) {
  const Result<Dataset> loaded = load_text("pathsel-dataset v1\nname x\n");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("kind"), std::string::npos);
}

TEST(Serialize, RejectsTruncatedMeasurement) {
  std::string text = text_of(sample_traceroute());
  // Chop the tail of the last line.
  text.resize(text.size() - 10);
  const Result<Dataset> loaded = load_text(text);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kParseError);
}

TEST(Serialize, RejectsUnknownKind) {
  const Result<Dataset> loaded =
      load_text("pathsel-dataset v1\nname x\nkind carrier-pigeon\n");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().message().find("kind"), std::string::npos);
}

TEST(Serialize, CatalogDatasetRoundTripsExactly) {
  meas::Catalog catalog{meas::CatalogConfig{.seed = 5, .scale = 0.02}};
  const Dataset& original = catalog.by_name("UW4-A");
  const Result<Dataset> loaded = round_trip(original);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().measurements.size(), original.measurements.size());
  EXPECT_EQ(loaded.value().episode_count, original.episode_count);
  // Spot-check bit-exact RTT round-tripping.
  for (std::size_t i = 0; i < original.measurements.size(); i += 37) {
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_DOUBLE_EQ(loaded.value().measurements[i].samples[s].rtt_ms,
                       original.measurements[i].samples[s].rtt_ms);
    }
  }
}

TEST(Serialize, EmptyMeasurementListAllowed) {
  const Result<Dataset> loaded = round_trip(test::make_dataset(2));
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().measurements.empty());
}

}  // namespace
}  // namespace pathsel::meas
