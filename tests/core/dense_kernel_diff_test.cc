// Differential suite: the dense min-plus kernel vs. the reference search.
//
// The dense kernel promises the same PairResult vector as the per-pair
// Bellman-Ford reference for every one-hop sweep — same pairs in the same
// order, same relay, bit-identical composed values.  This suite locks that
// promise against ~20 seeded random tables spanning mesh size, edge density,
// disconnected pairs, and single-sample degraded edges, at 1, 4, and 8
// worker threads, plus one hand-built golden table with hard-coded
// expectations and unit tests for the kernel's building blocks.
#include "core/dense_kernel.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/alternate.h"
#include "core/path_table.h"
#include "meas/dataset.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct MeshSpec {
  int hosts = 0;
  double density = 1.0;
  double loss = 0.0;      // per-sample loss probability
  bool degraded = false;  // D2 loss counting + some single-invocation edges
  Metric metric = Metric::kRtt;
  std::uint64_t seed = 0;
};

// A random mesh per `spec`: each unordered pair is measured with probability
// `density`; most edges get two 3-sample invocations.  Degraded meshes turn
// on the D2 first-sample-loss-only heuristic and give a third of their edges
// a single invocation, so those edges carry exactly one loss observation —
// exercising the count==1 point-estimate path through compose_estimate.
// Low densities leave pairs whose removal disconnects them, so the
// no-alternate omission rule is exercised too.
meas::Dataset make_mesh(const MeshSpec& spec) {
  auto ds = make_dataset(spec.hosts);
  if (spec.degraded) ds.first_sample_loss_only = true;
  Rng rng{spec.seed};
  for (int i = 0; i < spec.hosts; ++i) {
    for (int j = i + 1; j < spec.hosts; ++j) {
      if (!rng.bernoulli(spec.density)) continue;
      const double base = rng.uniform(5.0, 150.0);
      const bool single = spec.degraded && rng.bernoulli(1.0 / 3.0);
      const int invocations = single ? 1 : 2;
      for (int v = 0; v < invocations; ++v) {
        meas::Measurement m;
        m.src = topo::HostId{i};
        m.dst = topo::HostId{j};
        m.completed = true;
        int ok = 0;
        for (auto& s : m.samples) {
          s.lost = rng.bernoulli(spec.loss);
          s.rtt_ms = base + rng.uniform(0.0, 10.0);
          ok += s.lost ? 0 : 1;
        }
        if (ok < 2) {
          // Keep two RTT samples alive so the edge survives the traceroute
          // rtt.count() >= 2 build filter.
          m.samples[1].lost = false;
          m.samples[2].lost = false;
        }
        ds.measurements.push_back(std::move(m));
      }
    }
  }
  return ds;
}

// Asserts a and b are the same result vector: same pairs in the same order,
// same relay list, values within 1e-12 — and in fact bit-identical, which is
// the stronger property the kernel guarantees (±0.0 compare equal under ==,
// which is exactly the equivalence the engines promise).
void expect_identical(const std::vector<PairResult>& a,
                      const std::vector<PairResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "pair index " << i);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].via, b[i].via);
    EXPECT_NEAR(a[i].default_value, b[i].default_value, 1e-12);
    EXPECT_NEAR(a[i].alternate_value, b[i].alternate_value, 1e-12);
    EXPECT_EQ(a[i].default_value, b[i].default_value);
    EXPECT_EQ(a[i].alternate_value, b[i].alternate_value);
    EXPECT_EQ(a[i].default_estimate.mean, b[i].default_estimate.mean);
    EXPECT_EQ(a[i].default_estimate.var_of_mean,
              b[i].default_estimate.var_of_mean);
    EXPECT_EQ(a[i].alternate_estimate.mean, b[i].alternate_estimate.mean);
    EXPECT_EQ(a[i].alternate_estimate.var_of_mean,
              b[i].alternate_estimate.var_of_mean);
  }
}

std::vector<PairResult> run(const PathTable& table, Kernel kernel, int threads,
                            Metric metric, SimdMode simd = SimdMode::kAuto) {
  AnalyzerOptions o;
  o.metric = metric;
  o.max_intermediate_hosts = 1;
  o.threads = threads;
  o.kernel = kernel;
  o.simd = simd;
  return analyze_alternate_paths(table, o);
}

// The ~20 seeded tables.  Sizes straddle kDenseMinHosts so both sides of the
// auto heuristic appear among them; densities from sparse (disconnected
// pairs guaranteed) to complete; RTT and loss metrics; degraded tables mix
// in single-sample edges whose estimates are point values.
std::vector<MeshSpec> mesh_specs() {
  std::vector<MeshSpec> specs;
  std::uint64_t seed = 7001;
  for (const int hosts : {8, 12, 24, 48}) {
    for (const double density : {0.25, 0.6, 1.0}) {
      specs.push_back({hosts, density, 0.0, false, Metric::kRtt, seed++});
    }
  }
  for (const int hosts : {10, 20, 40}) {
    specs.push_back({hosts, 0.7, 0.15, false, Metric::kLoss, seed++});
  }
  for (const int hosts : {9, 16, 32}) {
    specs.push_back({hosts, 0.5, 0.1, true, Metric::kRtt, seed++});
    specs.push_back({hosts, 0.5, 0.2, true, Metric::kLoss, seed++});
  }
  return specs;  // 12 + 3 + 6 = 21 tables
}

TEST(DenseKernelDiff, MatchesReferenceOnSeededTables) {
  for (const MeshSpec& spec : mesh_specs()) {
    SCOPED_TRACE(testing::Message()
                 << "hosts=" << spec.hosts << " density=" << spec.density
                 << " loss=" << spec.loss << " degraded=" << spec.degraded
                 << " metric=" << static_cast<int>(spec.metric)
                 << " seed=" << spec.seed);
    const auto table =
        PathTable::build(make_mesh(spec), test::min_samples(1));
    const auto reference = run(table, Kernel::kSearch, 1, spec.metric);
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      // Every instruction path must match the reference bit for bit: the
      // scalar loop, the AVX2 loop (resolves to scalar on hardware without
      // it — then a redundant but harmless repeat), and whatever kAuto /
      // PATHSEL_SIMD picks for this run.
      for (const SimdMode simd :
           {SimdMode::kScalar, SimdMode::kAvx2, SimdMode::kAuto}) {
        SCOPED_TRACE(testing::Message()
                     << "simd=" << simd_mode_name(simd));
        expect_identical(reference,
                         run(table, Kernel::kDense, threads, spec.metric,
                             simd));
      }
      expect_identical(reference,
                       run(table, Kernel::kSearch, threads, spec.metric));
    }
  }
}

TEST(DenseKernelDiff, AutoSelectionPreservesResults) {
  // A dense 48-host mesh crosses the auto threshold; whatever engine kAuto
  // picks, the results must match both forced engines.
  MeshSpec spec{48, 1.0, 0.0, false, Metric::kRtt, 909};
  const auto table = PathTable::build(make_mesh(spec), test::min_samples(1));
  ASSERT_TRUE(dense_kernel_applicable(table.hosts().size(),
                                      table.edges().size(),
                                      [] {
                                        AnalyzerOptions o;
                                        o.max_intermediate_hosts = 1;
                                        return o;
                                      }()));
  const auto reference = run(table, Kernel::kSearch, 1, spec.metric);
  expect_identical(reference, run(table, Kernel::kAuto, 4, spec.metric));
  expect_identical(reference, run(table, Kernel::kDense, 4, spec.metric));
}

TEST(DenseKernelDiff, GoldenFixedTable) {
  // Hand-built 5-host table (RTT):
  //   0-1: 100   0-2: 30   2-1: 30   0-3: 10   3-1: 95   2-3: 5   0-4: 400
  // One-hop relays: 0-1 best via 2 (60); 0-2 best via 3 (15); 4 is a leaf,
  // so pair 0-4 has no alternate and is omitted.
  auto ds = make_dataset(5);
  add_invocations(ds, 0, 1, 100.0, 3);
  add_invocations(ds, 0, 2, 30.0, 3);
  add_invocations(ds, 2, 1, 30.0, 3);
  add_invocations(ds, 0, 3, 10.0, 3);
  add_invocations(ds, 3, 1, 95.0, 3);
  add_invocations(ds, 2, 3, 5.0, 3);
  add_invocations(ds, 0, 4, 400.0, 3);
  const auto table = PathTable::build(ds, test::min_samples(1));

  for (const Kernel kernel : {Kernel::kDense, Kernel::kSearch}) {
    SCOPED_TRACE(testing::Message() << "kernel=" << static_cast<int>(kernel));
    const auto results = run(table, kernel, 1, Metric::kRtt);
    ASSERT_EQ(results.size(), 6u);  // 7 edges, 0-4 omitted

    // Emission follows table edge order: ascending (min host, max host).
    const struct {
      int a, b, via;
      double direct, alternate;
    } want[] = {
        {0, 1, 2, 100.0, 60.0},  // 30 + 30 beats 10 + 95 via 3
        {0, 2, 3, 30.0, 15.0},   // 10 + 5
        {0, 3, 2, 10.0, 35.0},   // 30 + 5 beats 100 + 95 via 1
        {1, 2, 3, 30.0, 100.0},  // 95 + 5 beats 100 + 30 via 0
        {1, 3, 2, 95.0, 35.0},   // 30 + 5 beats 100 + 10 via 0
        {2, 3, 0, 5.0, 40.0},    // 30 + 10
    };
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "pair index " << i);
      EXPECT_EQ(results[i].a, topo::HostId{want[i].a});
      EXPECT_EQ(results[i].b, topo::HostId{want[i].b});
      ASSERT_EQ(results[i].via.size(), 1u);
      EXPECT_EQ(results[i].via[0], topo::HostId{want[i].via});
      EXPECT_DOUBLE_EQ(results[i].default_value, want[i].direct);
      EXPECT_DOUBLE_EQ(results[i].alternate_value, want[i].alternate);
    }
  }
}

TEST(DenseKernelDiff, ThreadCountInvariantAtOddGeometry) {
  // 33 hosts: not a multiple of the row chunk, so the last chunk is ragged.
  MeshSpec spec{33, 0.8, 0.05, false, Metric::kRtt, 424242};
  const auto table = PathTable::build(make_mesh(spec), test::min_samples(1));
  const auto base = run(table, Kernel::kDense, 1, spec.metric);
  for (const int threads : {2, 3, 4, 7, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical(base, run(table, Kernel::kDense, threads, spec.metric));
  }
}

// ---------------------------------------------------------------------------
// Building blocks.

TEST(WeightMatrix, LayoutAndLossTransform) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 3);
  // 1-2: 50% loss (alternating lost samples across 4 invocations).
  for (int i = 0; i < 4; ++i) {
    add_invocation(ds, 1, 2, {i % 2 == 0 ? 20.0 : -1.0,
                              i % 2 == 0 ? -1.0 : 20.0, 20.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));

  const WeightMatrix rtt = build_weight_matrix(table, Metric::kRtt);
  ASSERT_EQ(rtt.n, 3u);
  ASSERT_EQ(rtt.w.size(), 9u);
  for (std::size_t i = 0; i < rtt.n; ++i) EXPECT_EQ(rtt.at(i, i), kInf);
  EXPECT_DOUBLE_EQ(rtt.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(rtt.at(1, 0), 10.0);  // symmetric
  EXPECT_EQ(rtt.at(0, 2), kInf);         // unmeasured pair

  const WeightMatrix loss = build_weight_matrix(table, Metric::kLoss);
  const std::size_t i1 = table.host_index(topo::HostId{1});
  const std::size_t i2 = table.host_index(topo::HostId{2});
  const double p = edge_metric_value(*table.find(topo::HostId{1},
                                                 topo::HostId{2}),
                                     Metric::kLoss);
  EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);  // 4 of 12 samples lost
  EXPECT_DOUBLE_EQ(loss.w[i1 * loss.n + i2], -std::log(1.0 - p));
  EXPECT_DOUBLE_EQ(loss.at(0, 1), -std::log(1.0 - 0.0));  // lossless edge
}

TEST(MinPlus, TieBreaksToSmallestRelayIndex) {
  // Two equal-cost relays for (0, 1): via 2 and via 3, both 10 + 10.
  WeightMatrix w;
  w.n = 4;
  w.w.assign(16, kInf);
  const auto set = [&](std::size_t i, std::size_t j, double v) {
    w.w[i * w.n + j] = v;
    w.w[j * w.n + i] = v;
  };
  set(0, 1, 50.0);
  set(0, 2, 10.0);
  set(2, 1, 10.0);
  set(0, 3, 10.0);
  set(3, 1, 10.0);
  const auto mp = min_plus_square(w);
  ASSERT_TRUE(mp.is_ok());
  EXPECT_DOUBLE_EQ(mp.value().best[0 * 4 + 1], 20.0);
  EXPECT_EQ(mp.value().via[0 * 4 + 1], 2);  // smallest index wins the tie
}

TEST(MinPlus, NoFiniteRelayYieldsNoRelay) {
  // 0-1 measured, but no third host connects to both.
  WeightMatrix w;
  w.n = 3;
  w.w.assign(9, kInf);
  w.w[0 * 3 + 1] = w.w[1 * 3 + 0] = 5.0;
  w.w[0 * 3 + 2] = w.w[2 * 3 + 0] = 7.0;
  const auto mp = min_plus_square(w);
  ASSERT_TRUE(mp.is_ok());
  EXPECT_EQ(mp.value().best[0 * 3 + 1], kInf);
  EXPECT_EQ(mp.value().via[0 * 3 + 1], kNoRelay);
  EXPECT_DOUBLE_EQ(mp.value().best[1 * 3 + 2], 12.0);  // 1-0-2 relays fine
  EXPECT_EQ(mp.value().via[1 * 3 + 2], 0);
  // The diagonal holds round trips (0-1-0 here) — algebraically fine; the
  // emission loop only ever reads (i, j) cells of measured edges, i != j.
  EXPECT_DOUBLE_EQ(mp.value().best[0 * 3 + 0], 10.0);
}

TEST(MinPlus, RelayNeverDegeneratesToEndpointOrDirectEdge) {
  // Complete triangle: the best (and only) relay for each pair is the third
  // host — never i, j, or a path re-using the direct edge.
  WeightMatrix w;
  w.n = 3;
  w.w.assign(9, kInf);
  const auto set = [&](std::size_t i, std::size_t j, double v) {
    w.w[i * w.n + j] = v;
    w.w[j * w.n + i] = v;
  };
  set(0, 1, 1.0);
  set(0, 2, 1.0);
  set(1, 2, 1.0);
  const auto mp = min_plus_square(w);
  ASSERT_TRUE(mp.is_ok());
  EXPECT_EQ(mp.value().via[0 * 3 + 1], 2);
  EXPECT_EQ(mp.value().via[0 * 3 + 2], 1);
  EXPECT_EQ(mp.value().via[1 * 3 + 2], 0);
  EXPECT_DOUBLE_EQ(mp.value().best[0 * 3 + 1], 2.0);
}

TEST(DenseApplicable, HonoursKernelAndHopBounds) {
  AnalyzerOptions o;
  o.max_intermediate_hosts = 1;
  o.kernel = Kernel::kDense;
  EXPECT_TRUE(dense_kernel_applicable(4, 6, o));  // forced: size irrelevant
  o.kernel = Kernel::kSearch;
  EXPECT_FALSE(dense_kernel_applicable(4096, 4096 * 2000, o));
  o.kernel = Kernel::kAuto;
  o.max_intermediate_hosts = 0;  // unbounded: dense can't represent it
  EXPECT_FALSE(dense_kernel_applicable(4096, 4096 * 2000, o));
  o.max_intermediate_hosts = 2;
  EXPECT_FALSE(dense_kernel_applicable(4096, 4096 * 2000, o));
}

TEST(DenseApplicable, AutoComparesCostEstimates) {
  AnalyzerOptions o;
  o.max_intermediate_hosts = 1;
  // Below the host floor: never auto-selected, however dense.
  EXPECT_FALSE(dense_kernel_applicable(kDenseMinHosts - 1, 400, o));
  // Complete 64-host mesh: E = 2016, 2E^2 ≈ 8.1e6 >= 8 * 64^3 ≈ 2.1e6.
  EXPECT_TRUE(dense_kernel_applicable(64, 64 * 63 / 2, o));
  // Sparse 1000-host mesh (E = N): search is far cheaper than N^3.
  EXPECT_FALSE(dense_kernel_applicable(1000, 1000, o));
  // Above the memory budget the O(N^2) footprint rules the kernel out.
  EXPECT_FALSE(dense_kernel_applicable(65'537, std::size_t{65'537} * 1000, o));
}

TEST(DenseKernel, CancellationSurfacesStatus) {
  MeshSpec spec{40, 1.0, 0.0, false, Metric::kRtt, 5150};
  const auto table = PathTable::build(make_mesh(spec), test::min_samples(1));
  CancelToken cancel;
  cancel.cancel();
  AnalyzerOptions o;
  o.max_intermediate_hosts = 1;
  o.kernel = Kernel::kDense;
  o.cancel = &cancel;
  const auto result = analyze_alternate_paths_checked(table, o);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

}  // namespace
}  // namespace pathsel::core
