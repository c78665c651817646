// Figure 15: CDF of the improvement in propagation delay (10th-percentile
// RTT) overlaid with the mean-RTT improvement CDF (UW3).
#include "bench_util.h"

#include "core/figures.h"
#include "core/propagation.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 15", "propagation-delay vs mean-RTT improvement CDFs (UW3)",
      "superior alternates still exist for ~50% of paths on propagation "
      "delay alone, but the magnitudes shrink substantially");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  opt.keep_samples = true;
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  const auto analysis = core::analyze_propagation(table);

  const auto rtt_cdf = core::improvement_cdf(analysis.rtt_results);
  const auto prop_cdf = core::improvement_cdf(analysis.propagation_results);
  bench::emit_series("Figure 15: propagation vs mean RTT (ms)",
               {bench::cdf_series(prop_cdf, "propagation delay"),
                bench::cdf_series(rtt_cdf, "mean round-trip time")});

  Table summary{"Figure 15 summary"};
  summary.set_header({"metric", "% better", "p95 improvement (ms)"});
  summary.add_row({"propagation", Table::pct(prop_cdf.fraction_above(0.0)),
                   Table::fmt(prop_cdf.value_at_fraction(0.95), 1)});
  summary.add_row({"mean RTT", Table::pct(rtt_cdf.fraction_above(0.0)),
                   Table::fmt(rtt_cdf.value_at_fraction(0.95), 1)});
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig15_propagation")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
