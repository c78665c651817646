// Fault resilience: how gracefully the Table 1 / Figure 1 / Table 2 results
// degrade as deterministic fault injection (sim::FaultPlan) intensifies.
//
// Re-collects the UW3 campaign at 0/5/15/30% fault intensity (link flaps,
// exchange-fabric outages, BGP reconvergence blackholes, host crashes, ICMP
// storms, stuck probes) and reports, per intensity: the Table 1 coverage row,
// the failure-cause histogram, and the Figure 1 / Table 2 headline numbers
// from the surviving data.  The 0% row is byte-identical to the fault-free
// catalog, and every row is deterministic in the fault seed.
#include "bench_util.h"

#include "core/confidence.h"
#include "core/coverage.h"
#include "core/figures.h"
#include "util/expect.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Fault resilience",
      "UW3 re-collected under 0/5/15/30% fault intensity",
      "coverage and pair counts shrink with intensity; the surviving pairs "
      "still reproduce the Figure 1 / Table 2 shape (alternates exist, most "
      "differences significant) rather than collapsing");

  Table coverage{"Table 1 row under faults (UW3)"};
  coverage.set_header({"intensity", "attempts", "completed", "covered",
                       "coverage", "usable paths"});
  Table degradation{"Fig 1 / Table 2 degradation (UW3)"};
  degradation.set_header({"intensity", "pairs", "% better", "sig better",
                          "sig worse", "indeterminate"});
  Table failures{"failure causes"};
  failures.set_header({"intensity", "endpoint down", "probe", "blackhole",
                       "no route", "stuck"});

  for (const double intensity : {0.0, 0.05, 0.15, 0.30}) {
    meas::CatalogConfig cfg;
    cfg.seed = 1999;
    cfg.scale = bench::bench_scale();
    cfg.fault_intensity = intensity;
    meas::Catalog catalog{cfg};
    const meas::Dataset& ds = catalog.by_name("UW3");

    core::BuildOptions build;
    build.min_samples = bench::scaled_min_samples();
    auto result = core::analyze_with_coverage(ds, build, {});
    const std::string label = Table::pct(intensity);
    if (!result.is_ok()) {
      // Graceful degradation all the way down: an intensity that wipes out
      // the dataset reports why instead of aborting the sweep.
      coverage.add_row({label, "-", "-", "-", "-", result.status().to_string()});
      continue;
    }
    const core::CoverageSummary& c = result.value().coverage;
    coverage.add_row({label, std::to_string(c.attempts),
                      std::to_string(c.completed),
                      std::to_string(c.covered_pairs) + " / " +
                          std::to_string(c.potential_pairs),
                      Table::pct(c.coverage()),
                      std::to_string(c.usable_edges)});

    auto& results = result.value().columns;
    const auto cdf = core::improvement_cdf(results);
    PATHSEL_EXPECT(core::annotate_significance(results).is_ok(),
                   "uncancellable significance sweep failed");
    const auto tally = core::tally_significance(results);
    degradation.add_row({label, std::to_string(results.size()),
                         Table::pct(cdf.fraction_above(0.0)),
                         Table::pct(tally.better), Table::pct(tally.worse),
                         Table::pct(tally.indeterminate)});

    const auto& f = c.failures_by_reason;
    failures.add_row(
        {label,
         std::to_string(f[static_cast<std::size_t>(
             meas::FailureReason::kEndpointDown)]),
         std::to_string(
             f[static_cast<std::size_t>(meas::FailureReason::kProbeFailure)]),
         std::to_string(
             f[static_cast<std::size_t>(meas::FailureReason::kBlackhole)]),
         std::to_string(
             f[static_cast<std::size_t>(meas::FailureReason::kNoRoute)]),
         std::to_string(
             f[static_cast<std::size_t>(meas::FailureReason::kStuckProbe)])});
  }

  bench::emit(coverage);
  bench::emit(failures);
  bench::emit(degradation);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fault_resilience")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
