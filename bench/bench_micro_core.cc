// Microbenchmarks of the analysis layer (google-benchmark).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_gbench_report.h"

#include "core/alternate.h"
#include "core/disjoint.h"
#include "core/median.h"
#include "core/path_table.h"
#include "meas/catalog.h"
#include "stats/histogram.h"
#include "stats/tdist.h"
#include "stats/ttest.h"
#include "util/rng.h"

namespace pathsel {
namespace {

const meas::Dataset& small_uw3() {
  static meas::Catalog catalog{meas::CatalogConfig{.seed = 7, .scale = 0.05}};
  return catalog.by_name("UW3");
}

void BM_PathTableBuild(benchmark::State& state) {
  const auto& ds = small_uw3();
  core::BuildOptions opt;
  opt.min_samples = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PathTable::build(ds, opt));
  }
}
BENCHMARK(BM_PathTableBuild);

void BM_AlternateAnalysisRtt(benchmark::State& state) {
  core::BuildOptions opt;
  opt.min_samples = 5;
  const auto table = core::PathTable::build(small_uw3(), opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_alternate_paths(table, {}));
  }
}
BENCHMARK(BM_AlternateAnalysisRtt);

void BM_AlternateAnalysisLoss(benchmark::State& state) {
  core::BuildOptions opt;
  opt.min_samples = 5;
  const auto table = core::PathTable::build(small_uw3(), opt);
  core::AnalyzerOptions analyze;
  analyze.metric = core::Metric::kLoss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_alternate_paths(table, analyze));
  }
}
BENCHMARK(BM_AlternateAnalysisLoss);

void BM_OneHopAnalysis(benchmark::State& state) {
  core::BuildOptions opt;
  opt.min_samples = 5;
  const auto table = core::PathTable::build(small_uw3(), opt);
  core::AnalyzerOptions analyze;
  analyze.max_intermediate_hosts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_alternate_paths(table, analyze));
  }
}
BENCHMARK(BM_OneHopAnalysis);

// One k = 2 disjoint sweep over every pair of the UW3 table, serially;
// args: mode (0 link, 1 node) and metric (0 rtt, 1 loss).
void BM_DisjointSweep(benchmark::State& state) {
  core::BuildOptions opt;
  opt.min_samples = 5;
  const auto table = core::PathTable::build(small_uw3(), opt);
  core::DisjointOptions disjoint;
  disjoint.k = 2;
  disjoint.threads = 1;
  disjoint.mode = state.range(0) == 0 ? core::DisjointMode::kLinkDisjoint
                                      : core::DisjointMode::kNodeDisjoint;
  disjoint.metric = state.range(1) == 0 ? core::Metric::kRtt
                                        : core::Metric::kLoss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_disjoint_alternates(table, disjoint));
  }
  state.counters["hosts"] = static_cast<double>(table.hosts().size());
  state.counters["pairs"] = static_cast<double>(table.edges().size());
}
BENCHMARK(BM_DisjointSweep)
    ->ArgNames({"node", "loss"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_HistogramConvolve(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  stats::Histogram a{0.0, 1.0, bins};
  stats::Histogram b{0.0, 1.0, bins};
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    a.add(rng.uniform(0.0, static_cast<double>(bins)));
    b.add(rng.uniform(0.0, static_cast<double>(bins)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::Histogram::convolve(a, b));
  }
}
BENCHMARK(BM_HistogramConvolve)->Arg(64)->Arg(256)->Arg(1024);

void BM_StudentTQuantile(benchmark::State& state) {
  double v = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::student_t_quantile(0.975, v));
    v = v < 200.0 ? v + 1.0 : 2.0;
  }
}
BENCHMARK(BM_StudentTQuantile);

// One verdict per call over 199 fixed estimate pairs, dof 2..200 like the
// quantile loop above and observed t spread over [0, 4), so the two
// benchmarks' per-call times compare directly.
void BM_WelchVerdict(benchmark::State& state) {
  std::vector<std::pair<stats::MeanEstimate, stats::MeanEstimate>> cases;
  Rng rng{11};
  for (int v = 2; v <= 200; ++v) {
    const stats::MeanEstimate alternate{.mean = 10.0, .var_of_mean = 0.5,
                                        .dof_denom = 0.5 / v};
    const stats::MeanEstimate def{.mean = 10.0 + rng.uniform(0.0, 4.0),
                                  .var_of_mean = 0.5, .dof_denom = 0.5 / v};
    cases.emplace_back(def, alternate);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::welch_verdict(cases[i].first, cases[i].second, 0.95));
    i = i + 1 < cases.size() ? i + 1 : 0;
  }
}
BENCHMARK(BM_WelchVerdict);

}  // namespace
}  // namespace pathsel

PATHSEL_GBENCH_MAIN("micro_core")
