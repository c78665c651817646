#include "meas/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

#include "meas/catalog.h"
#include "test_util.h"

namespace pathsel::meas {
namespace {

Dataset sample_traceroute() {
  auto ds = test::make_dataset(3);
  ds.name = "demo";
  test::add_invocation(ds, 0, 1, {10.5, -1.0, 30.25},
                       SimTime::start() + Duration::seconds(12));
  ds.measurements.back().as_path = {topo::AsId{7}, topo::AsId{3}};
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
  std::stringstream ss;
  write_dataset(ss, original);
  std::string error;
  const auto loaded = read_dataset(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->kind, original.kind);
  EXPECT_EQ(loaded->duration.total_millis(), original.duration.total_millis());
  EXPECT_EQ(loaded->hosts, original.hosts);
  ASSERT_EQ(loaded->measurements.size(), original.measurements.size());
  for (std::size_t i = 0; i < original.measurements.size(); ++i) {
    const auto& a = original.measurements[i];
    const auto& b = loaded->measurements[i];
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.as_path, b.as_path);
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
  std::stringstream ss;
  write_dataset(ss, ds);
  const auto loaded = read_dataset(ss);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->measurements.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->measurements[0].bandwidth_kBps, 123.456);
  EXPECT_DOUBLE_EQ(loaded->measurements[0].tcp_rtt_ms, 78.9);
  EXPECT_DOUBLE_EQ(loaded->measurements[0].tcp_loss_rate, 0.0123);
}

TEST(Serialize, EpisodesPreserved) {
  auto ds = test::make_dataset(3);
  ds.episode_count = 2;
  test::add_invocation(ds, 0, 1, {10.0, 10.0, 10.0}, SimTime::start(), 1);
  std::stringstream ss;
  write_dataset(ss, ds);
  const auto loaded = read_dataset(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->episode_count, 2);
  EXPECT_EQ(loaded->measurements[0].episode, 1);
}

TEST(Serialize, FlagsPreserved) {
  auto ds = test::make_dataset(2);
  ds.first_sample_loss_only = true;
  std::stringstream ss;
  write_dataset(ss, ds);
  const auto loaded = read_dataset(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->first_sample_loss_only);
}

TEST(Serialize, RejectsBadHeader) {
  std::stringstream ss{"garbage\n"};
  std::string error;
  EXPECT_FALSE(read_dataset(ss, &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(Serialize, RejectsMissingField) {
  std::stringstream ss{"pathsel-dataset v1\nname x\n"};
  std::string error;
  EXPECT_FALSE(read_dataset(ss, &error).has_value());
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST(Serialize, RejectsTruncatedMeasurement) {
  Dataset ds = sample_traceroute();
  std::stringstream ss;
  write_dataset(ss, ds);
  std::string text = ss.str();
  // Chop the tail of the last line.
  text.resize(text.size() - 10);
  std::stringstream truncated{text};
  std::string error;
  EXPECT_FALSE(read_dataset(truncated, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Serialize, RejectsUnknownKind) {
  std::stringstream ss{
      "pathsel-dataset v1\nname x\nkind carrier-pigeon\n"};
  std::string error;
  EXPECT_FALSE(read_dataset(ss, &error).has_value());
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST(Serialize, CatalogDatasetRoundTripsExactly) {
  meas::Catalog catalog{meas::CatalogConfig{.seed = 5, .scale = 0.02}};
  const Dataset& original = catalog.by_name("UW4-A");
  std::stringstream ss;
  write_dataset(ss, original);
  const auto loaded = read_dataset(ss);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->measurements.size(), original.measurements.size());
  EXPECT_EQ(loaded->episode_count, original.episode_count);
  // Spot-check bit-exact RTT round-tripping.
  for (std::size_t i = 0; i < original.measurements.size(); i += 37) {
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_DOUBLE_EQ(loaded->measurements[i].samples[s].rtt_ms,
                       original.measurements[i].samples[s].rtt_ms);
    }
  }
}

TEST(Serialize, EmptyMeasurementListAllowed) {
  auto ds = test::make_dataset(2);
  std::stringstream ss;
  write_dataset(ss, ds);
  const auto loaded = read_dataset(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->measurements.empty());
}

}  // namespace
}  // namespace pathsel::meas
