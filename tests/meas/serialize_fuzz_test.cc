// Adversarial-input hardening for meas::read_dataset: every entry of the
// malformed corpus must be rejected with an error message — never a crash,
// an abort, or a partially filled dataset (run under ASan/UBSan in CI).
#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "meas/serialize.h"
#include "test_util.h"

namespace pathsel::meas {
namespace {

constexpr const char* kHeader =
    "pathsel-dataset v1\n"
    "name fuzz\n"
    "kind traceroute\n"
    "duration_ms 1000\n"
    "first_sample_loss_only 0\n"
    "episodes 0\n"
    "hosts 3 0 1 2\n";

constexpr const char* kTcpHeader =
    "pathsel-dataset v1\n"
    "name fuzz\n"
    "kind tcp\n"
    "duration_ms 1000\n"
    "first_sample_loss_only 0\n"
    "episodes 0\n"
    "hosts 3 0 1 2\n";

void expect_rejected(const std::string& text, const char* why) {
  std::stringstream ss{text};
  std::string error;
  EXPECT_FALSE(read_dataset(ss, &error).has_value()) << why << "\n" << text;
  EXPECT_FALSE(error.empty()) << why;
}

TEST(SerializeFuzz, GarbageHeaders) {
  expect_rejected("pathsel-dataset v2\n", "unsupported version");
  expect_rejected(
      "pathsel-dataset v1\nkind traceroute\nname x\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 0\n",
      "fields out of order");
}

TEST(SerializeFuzz, MalformedHeaderValues) {
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms -5\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 0\n",
      "negative duration");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 12x\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 0\n",
      "non-numeric duration");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 2\nepisodes 0\nhosts 0\n",
      "boolean out of range");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes -3\nhosts 0\n",
      "negative episodes");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms "
      "99999999999999999999999999\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 0\n",
      "duration overflow");
  // A key with no value is malformed; it must not inherit the value of the
  // field before it.
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 1\nepisodes\nhosts 0\n",
      "episodes without a value");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only\nepisodes 0\nhosts 0\n",
      "first_sample_loss_only without a value");
}

TEST(SerializeFuzz, HostsLineAttacks) {
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 99999999999 0\n",
      "absurd host count must not allocate");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 3 0 1\n",
      "fewer ids than the count");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 2 0 -4\n",
      "negative host id");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 2 0 0\n",
      "duplicate host id");
  expect_rejected(
      "pathsel-dataset v1\nname x\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 2 0 1 junk\n",
      "trailing tokens after the host list");
}

TEST(SerializeFuzz, MeasurementLineAttacks) {
  expect_rejected(std::string{kHeader} + "x 0 0 1 -1 1\n", "unknown line tag");
  expect_rejected(std::string{kHeader} + "m 0 0 9 -1 1 0 1 0 1 0 1 0\n",
                  "dst not in the declared host set");
  expect_rejected(std::string{kHeader} + "m 0 7 1 -1 1 0 1 0 1 0 1 0\n",
                  "src not in the declared host set");
  expect_rejected(std::string{kHeader} + "m 0 1 1 -1 1 0 1 0 1 0 1 0\n",
                  "src == dst");
  expect_rejected(std::string{kHeader} + "m -50 0 1 -1 1 0 1 0 1 0 1 0\n",
                  "negative measurement time");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -2 1 0 1 0 1 0 1 0\n",
                  "episode below -1");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 2 0 1 0 1 0 1 0\n",
                  "completed flag out of range");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 -2.5 0 1 0 1 0\n",
                  "negative RTT");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 nan 0 1 0 1 0\n",
                  "NaN RTT");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 inf 0 1 0 1 0\n",
                  "infinite RTT");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 3 1 0 1 0 1 0\n",
                  "lost flag out of range");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1\n",
                  "mid-measurement EOF (missing samples)");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1\n",
                  "missing AS path length");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1 5000 1\n",
                  "oversized AS list");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1 3 7 8\n",
                  "AS list shorter than its count");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1 1 -7\n",
                  "negative AS id");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1 0 junk\n",
                  "trailing garbage after a measurement");
}

TEST(SerializeFuzz, TcpFieldAttacks) {
  expect_rejected(std::string{kTcpHeader} + "m 0 0 1 -1 1 100\n",
                  "mid-measurement EOF (missing transfer fields)");
  expect_rejected(std::string{kTcpHeader} + "m 0 0 1 -1 1 -10 5 0.1\n",
                  "negative bandwidth");
  expect_rejected(std::string{kTcpHeader} + "m 0 0 1 -1 1 100 5 1.5\n",
                  "loss rate above 1");
  expect_rejected(std::string{kTcpHeader} + "m 0 0 1 -1 1 nan 5 0.1\n",
                  "NaN bandwidth");
}

TEST(SerializeFuzz, FaultTokenAttacks) {
  const std::string ok_prefix =
      std::string{kHeader} + "m 0 0 1 -1 0 0 1 0 1 0 1 0";
  expect_rejected(ok_prefix + " f\n", "f token without a value");
  expect_rejected(ok_prefix + " f 0\n", "failure reason zero is implicit");
  expect_rejected(ok_prefix + " f 6\n", "failure reason out of range");
  expect_rejected(ok_prefix + " f 2 f 3\n", "duplicate failure token");
  expect_rejected(ok_prefix + " a 0\n", "attempts below 1");
  expect_rejected(ok_prefix + " a 256\n", "attempts above 255");
  expect_rejected(ok_prefix + " a 2 a 3\n", "duplicate attempts token");
  expect_rejected(ok_prefix + " z 1\n", "unknown trailing token");
  expect_rejected(std::string{kHeader} + "m 0 0 1 -1 1 0 1 0 1 0 1 0 f 2\n",
                  "failure reason on a completed measurement");
}

// The row token language, pinned case by case: whitespace is the C
// locale's (space, tab, \r, \v, \f), numbers follow the decimal grammar
// (optional sign, digits, point, exponent) with no hex, inf or nan, and a
// value out of the field's range is rejected except for a double underflow,
// which reads as zero.
struct RowCase {
  const char* header;
  const char* row;
  bool accepted;
  const char* why;
};

const RowCase kRowLanguage[] = {
    {kHeader, "m\t0\t0\t1\t-1\t1\t0\t1\t0\t1\t0\t1\t0\n", true,
     "tab separators"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 0\r\n", true, "trailing \\r"},
    {kHeader, "   m 0 0 1 -1 1 0 1 0 1 0 1 0\n", true, "leading spaces"},
    {kHeader, "m  0   0 1 -1 1 0 1 0 1 0 1 0  \n", true, "repeated spaces"},
    {kHeader, "m +5 0 1 -1 1 0 1 0 1 0 1 0\n", true, "+5 integer"},
    {kHeader, "m 0 0 1 -1 1 0 +1.5 0 1 0 1 0\n", true, "+1.5 double"},
    {kHeader, "m 0 0 1 -1 1 0 .5 0 5. 0 1e2 0\n", true, ".5, 5. and 1e2"},
    {kHeader, "m 0 0 1 -1 1 0 1E2 0 1e+2 0 -0 0\n", true, "1E2, 1e+2, -0"},
    {kHeader, "m 007 00 01 -01 1 0 1 0 1 0 1 0\n", true, "leading zeros"},
    {kHeader, "m 0 0 1 -1 1 0 1e-400 0 1 0 1 0\n", true,
     "double underflow reads as zero"},
    {kHeader, "m 0 0 1 -1 1 0 4.9406564584124654e-324 0 1 0 1 0\n", true,
     "smallest subnormal"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 -0\n", true, "AS count -0"},
    {kHeader, "m 0 0 1 -1 1 0 1e400 0 1 0 1 0\n", false, "double overflow"},
    {kHeader, "m 0 0 1 -1 1 0 inf 0 1 0 1 0\n", false, "inf"},
    {kHeader, "m 0 0 1 -1 1 0 nan 0 1 0 1 0\n", false, "nan"},
    {kHeader, "m 0 0 1 -1 1 0 0x1p3 0 1 0 1 0\n", false, "hex float"},
    {kHeader, "m 0 0 1 -1 1 0 1e 0 1 0 1 0\n", false, "exponent without digits"},
    {kHeader, "m 0 0 1 -1 1 0 . 0 1 0 1 0\n", false, "lone point"},
    {kHeader, "m 0 0 1 -1 1 0 +-1 0 1 0 1 0\n", false, "two signs"},
    {kHeader, "m 0 2147483648 1 -1 1 0 1 0 1 0 1 0\n", false,
     "host id past int32"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 -1\n", false, "AS count -1"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 1 2147483648\n", false,
     "AS id past int32"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 0 a +2\n", true, "+2 attempts"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 0 a 2x\n", false, "glued attempts"},
    {kTcpHeader, "m 0 0 1 -1 1 100 3.5 .25\n", true, "tcp .25 loss"},
    {kTcpHeader, "m 0 0 1 -1 1 100 3.5 1e-400\n", true, "tcp underflow"},
    {kTcpHeader, "m 0 0 1 -1 1 1e400 3.5 0\n", false, "tcp overflow"},
    {kTcpHeader, "m 0 0 1 -1 1 100 3.5 0 junk\n", false, "tcp trailing junk"},
    // A number glued to the next token: the row reader splits at whitespace
    // and parses each token whole, so neither is accepted.
    {kTcpHeader, "m 0 0 1 -1 0 100 3.5 0f 1\n", false, "glued f token"},
    {kHeader, "m 0 0 1 -1 1 0 1 0 1 0 1 1 7a 2\n", false, "glued a token"},
};

TEST(SerializeFuzz, RowTokenLanguage) {
  for (const RowCase& c : kRowLanguage) {
    std::stringstream ss{std::string{c.header} + c.row};
    std::string error;
    const bool accepted = read_dataset(ss, &error).has_value();
    EXPECT_EQ(accepted, c.accepted) << c.why << ": " << c.row << error;
  }
}

TEST(SerializeFuzz, UnderflowReadsAsZero) {
  std::stringstream ss{std::string{kHeader} +
                       "m 0 0 1 -1 1 0 1e-400 0 -1e-400 0 1 0\n"};
  std::string error;
  const auto ds = read_dataset(ss, &error);
  ASSERT_TRUE(ds.has_value()) << error;
  EXPECT_EQ(ds->measurements[0].samples[0].rtt_ms, 0.0);
  EXPECT_FALSE(std::signbit(ds->measurements[0].samples[0].rtt_ms));
  EXPECT_TRUE(std::signbit(ds->measurements[0].samples[1].rtt_ms));
}

// Whole-file invariant: a file is either fault-aware (every failed row
// carries its `f` reason) or legacy (no f/a tokens anywhere).  A file mixing
// the two — fault tokens on some rows while other failed rows lack their
// reason — is a splice of incompatible files and must be rejected, wherever
// in the file the legacy row sits.
TEST(SerializeFuzz, MixedFaultAwareAndLegacyRowsRejected) {
  const std::string fault_aware_failed = "m 0 0 1 -1 0 0 1 0 1 0 1 0 f 2\n";
  const std::string fault_aware_retried = "m 30 0 2 -1 1 0 1 0 1 0 1 0 a 2\n";
  const std::string legacy_failed = "m 60 1 2 -1 0 0 1 0 1 0 1 0\n";

  expect_rejected(std::string{kHeader} + fault_aware_failed + legacy_failed,
                  "legacy failed row after a fault-aware row");
  expect_rejected(std::string{kHeader} + legacy_failed + fault_aware_failed,
                  "legacy failed row before a fault-aware row");
  expect_rejected(std::string{kHeader} + fault_aware_retried + legacy_failed,
                  "attempts token plus a reasonless failed row");
}

TEST(SerializeFuzz, HomogeneousFilesStayAccepted) {
  // Fully legacy: failed rows without any tokens are the pre-fault format.
  {
    const std::string text = std::string{kHeader} +
                             "m 0 0 1 -1 0 0 1 0 1 0 1 0\n"
                             "m 60 1 2 -1 0 0 1 0 1 0 1 0\n";
    std::stringstream ss{text};
    std::string error;
    EXPECT_TRUE(read_dataset(ss, &error).has_value()) << error;
  }
  // Fully fault-aware: every failed row carries its reason.
  {
    const std::string text = std::string{kHeader} +
                             "m 0 0 1 -1 0 0 1 0 1 0 1 0 f 2\n"
                             "m 30 0 2 -1 1 0 1 0 1 0 1 0 a 2\n"
                             "m 60 1 2 -1 0 0 1 0 1 0 1 0 f 1\n";
    std::stringstream ss{text};
    std::string error;
    EXPECT_TRUE(read_dataset(ss, &error).has_value()) << error;
  }
  // Fault-aware rows mixed with completed token-free rows are fine: a
  // completed single-attempt row serializes without tokens in both formats.
  {
    const std::string text = std::string{kHeader} +
                             "m 0 0 1 -1 1 0 1 0 1 0 1 0\n"
                             "m 60 1 2 -1 0 0 1 0 1 0 1 0 f 3\n";
    std::stringstream ss{text};
    std::string error;
    EXPECT_TRUE(read_dataset(ss, &error).has_value()) << error;
  }
}

TEST(SerializeFuzz, ValidFaultTokensAccepted) {
  const std::string text =
      std::string{kHeader} + "m 0 0 1 -1 0 0 1 0 1 0 1 0 f 3 a 2\n";
  std::stringstream ss{text};
  std::string error;
  const auto ds = read_dataset(ss, &error);
  ASSERT_TRUE(ds.has_value()) << error;
  ASSERT_EQ(ds->measurements.size(), 1u);
  EXPECT_EQ(ds->measurements[0].failure, FailureReason::kBlackhole);
  EXPECT_EQ(ds->measurements[0].attempts, 2);
}

TEST(SerializeFuzz, FailureAndAttemptsRoundTrip) {
  auto ds = test::make_dataset(3);
  test::add_invocation(ds, 0, 1, {10.0, 11.0, 12.0});
  Measurement failed;
  failed.when = SimTime::start() + Duration::minutes(5);
  failed.src = topo::HostId{1};
  failed.dst = topo::HostId{2};
  failed.completed = false;
  failed.failure = FailureReason::kNoRoute;
  failed.attempts = 3;
  ds.measurements.push_back(failed);

  std::stringstream ss;
  write_dataset(ss, ds);
  std::string error;
  const auto loaded = read_dataset(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->measurements.size(), 2u);
  EXPECT_EQ(loaded->measurements[0].failure, FailureReason::kNone);
  EXPECT_EQ(loaded->measurements[0].attempts, 1);
  EXPECT_EQ(loaded->measurements[1].failure, FailureReason::kNoRoute);
  EXPECT_EQ(loaded->measurements[1].attempts, 3);
}

TEST(SerializeFuzz, DefaultFieldsKeepTheLegacyByteStream) {
  auto ds = test::make_dataset(3);
  test::add_invocation(ds, 0, 1, {10.0, 11.0, 12.0});
  std::stringstream legacy;
  write_dataset(legacy, ds);

  ds.measurements[0].failure = FailureReason::kProbeFailure;
  ds.measurements[0].completed = false;
  ds.measurements[0].attempts = 2;
  std::stringstream faulted;
  write_dataset(faulted, ds);
  EXPECT_NE(legacy.str(), faulted.str());

  ds.measurements[0].failure = FailureReason::kNone;
  ds.measurements[0].completed = true;
  ds.measurements[0].attempts = 1;
  std::stringstream restored;
  write_dataset(restored, ds);
  EXPECT_EQ(legacy.str(), restored.str());
}

}  // namespace
}  // namespace pathsel::meas
