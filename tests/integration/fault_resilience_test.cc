// Fault-injection resilience: the fault-aware collection path must keep
// legacy outputs byte-identical when disabled, and faulted campaigns must
// complete, record their failures, and analyze deterministically.
#include <string>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "meas/catalog.h"
#include "meas/collector.h"
#include "meas/serialize.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "topo/generator.h"

namespace pathsel {
namespace {

topo::Topology small_topology(std::uint64_t seed) {
  topo::GeneratorConfig g;
  g.seed = seed;
  g.backbone_count = 3;
  g.regional_count = 6;
  g.stub_count = 12;
  return topo::generate_topology(g);
}

std::vector<topo::HostId> first_hosts(int n) {
  std::vector<topo::HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(topo::HostId{i});
  return out;
}

std::string serialized(const meas::Dataset& ds) {
  std::string text;
  meas::write_dataset_chunks(
      ds, [&text](std::string_view chunk) { text += chunk; });
  return text;
}

// A present-but-disabled plan (and a zero-retry policy) must take the legacy
// code path: same RNG draws, byte-identical dataset.
TEST(FaultResilience, DisabledPlanKeepsByteIdentity) {
  const sim::Network net{small_topology(7), sim::NetworkConfig{}};
  meas::CollectorConfig cc;
  cc.duration = Duration::hours(4);
  cc.mean_interval = Duration::seconds(45);

  const auto legacy = meas::collect(net, first_hosts(8), cc, "legacy");

  const sim::FaultPlan disabled{sim::FaultConfig::at_intensity(0.0),
                                net.topology(), cc.duration};
  ASSERT_FALSE(disabled.enabled());
  cc.faults = &disabled;
  const auto gated = meas::collect(net, first_hosts(8), cc, "legacy");

  EXPECT_EQ(serialized(legacy), serialized(gated));
}

// At zero intensity the catalog ignores the fault seed entirely.
TEST(FaultResilience, ZeroIntensityCatalogMatchesLegacy) {
  meas::Catalog plain{meas::CatalogConfig{.seed = 1999, .scale = 0.01}};
  meas::Catalog faultless{meas::CatalogConfig{.seed = 1999,
                                              .scale = 0.01,
                                              .fault_intensity = 0.0,
                                              .fault_seed = 77}};
  EXPECT_EQ(serialized(plain.by_name("UW3")),
            serialized(faultless.by_name("UW3")));
}

TEST(FaultResilience, FaultedCampaignCompletesWithCoverage) {
  meas::Catalog cat{meas::CatalogConfig{
      .seed = 1999, .scale = 0.01, .fault_intensity = 0.3}};
  const auto& ds = cat.by_name("UW3");
  EXPECT_GT(ds.completed_count(), 0u);

  std::size_t recorded_failures = 0;
  for (const auto& m : ds.measurements) {
    if (m.completed) {
      EXPECT_EQ(m.failure, meas::FailureReason::kNone);
    }
    if (m.failure != meas::FailureReason::kNone) ++recorded_failures;
  }
  EXPECT_GT(recorded_failures, 0u);  // 30% intensity must leave scars

  core::BuildOptions build;
  build.min_samples = 2;
  const auto result = core::analyze_with_coverage(ds, build, {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const core::CoverageSummary& c = result.value().coverage;
  EXPECT_GT(c.covered_pairs, 0u);
  EXPECT_LT(c.covered_pairs, c.potential_pairs);  // degraded, not dead
  EXPECT_GE(c.attempts, c.completed);
  std::size_t failures = 0;
  for (const std::size_t n : c.failures_by_reason) failures += n;
  EXPECT_GT(failures, 0u);
  EXPECT_FALSE(result.value().columns.empty());
}

TEST(FaultResilience, RetryRecordsAttemptsAndReasons) {
  sim::NetworkConfig net_cfg;
  net_cfg.measurement_failure_rate = 0.9;
  const sim::Network net{small_topology(9), net_cfg};
  meas::CollectorConfig cc;
  cc.duration = Duration::hours(2);
  cc.mean_interval = Duration::seconds(30);
  cc.availability.flaky_fraction = 0.0;
  cc.availability.dead_fraction = 0.0;
  cc.retry.max_retries = 2;
  const auto ds = meas::collect(net, first_hosts(6), cc, "retry");

  ASSERT_GT(ds.measurements.size(), 0u);
  bool saw_exhausted_retry = false;
  for (const auto& m : ds.measurements) {
    EXPECT_GE(m.attempts, 1);
    EXPECT_LE(m.attempts, 3);  // 1 + max_retries
    if (!m.completed) {
      EXPECT_EQ(m.failure, meas::FailureReason::kProbeFailure);
      saw_exhausted_retry = saw_exhausted_retry || m.attempts == 3;
    }
  }
  EXPECT_TRUE(saw_exhausted_retry);
}

TEST(FaultResilience, FaultSeedDeterminesTheCampaign) {
  const meas::CatalogConfig base{
      .seed = 1999, .scale = 0.01, .fault_intensity = 0.2, .fault_seed = 5};
  meas::Catalog a{base};
  meas::Catalog b{base};
  EXPECT_EQ(serialized(a.by_name("UW3")), serialized(b.by_name("UW3")));

  meas::CatalogConfig reseeded = base;
  reseeded.fault_seed = 6;
  meas::Catalog c{reseeded};
  EXPECT_NE(serialized(a.by_name("UW3")), serialized(c.by_name("UW3")));
}

TEST(FaultResilience, AnalysisIsThreadCountInvariantUnderFaults) {
  meas::Catalog cat{meas::CatalogConfig{
      .seed = 1999, .scale = 0.01, .fault_intensity = 0.3}};
  core::BuildOptions build;
  build.min_samples = 2;
  core::AnalyzerOptions serial;
  serial.threads = 1;
  core::AnalyzerOptions wide;
  wide.threads = 8;
  const meas::Dataset& uw3 = cat.by_name("UW3");
  const auto one = core::analyze_with_coverage(uw3, build, serial);
  const auto eight = core::analyze_with_coverage(uw3, build, wide);
  ASSERT_TRUE(one.is_ok());
  ASSERT_TRUE(eight.is_ok());
  const core::ResultColumns& r1 = one.value().columns;
  const core::ResultColumns& r8 = eight.value().columns;
  ASSERT_FALSE(r1.empty());
  EXPECT_EQ(r1.src, r8.src);
  EXPECT_EQ(r1.dst, r8.dst);
  EXPECT_EQ(r1.default_value, r8.default_value);  // bit-identical
  EXPECT_EQ(r1.alternate_value, r8.alternate_value);
  EXPECT_EQ(r1.via, r8.via);
}

}  // namespace
}  // namespace pathsel
