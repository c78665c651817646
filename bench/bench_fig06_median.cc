// Figure 6: mean- vs median-based alternate selection (one-hop, D2-NA).
// Medians of synthetic paths come from convolving per-hop sample
// distributions.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/figures.h"
#include "core/median.h"
#include "core/result_columns.h"
#include "stats/ks.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 6", "mean vs median RTT improvement CDFs, one-hop, D2-NA",
      "the two curves are nearly indistinguishable: using the mean instead "
      "of the median does not change the result");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  opt.keep_samples = true;
  const auto table = core::PathTable::build(catalog.by_name("D2-NA"), opt);

  core::AnalyzerOptions mean_opt;
  mean_opt.max_intermediate_hosts = 1;
  const auto means = core::from_pairs(
      core::analyze_alternate_paths(table, mean_opt), mean_opt.metric);
  const auto medians = core::analyze_median_alternates(table);

  stats::EmpiricalCdf mean_cdf = core::improvement_cdf(means);
  stats::EmpiricalCdf median_cdf;
  for (const auto& r : medians) median_cdf.add(r.improvement());

  bench::emit_series("Figure 6: mean vs median improvement CDF (ms)",
               {bench::cdf_series(mean_cdf, "mean (one-hop)"),
                bench::cdf_series(median_cdf, "median (one-hop)")});

  Table summary{"Figure 6 summary"};
  summary.set_header({"statistic", "pairs", "% better", "median improvement"});
  summary.add_row({"mean", std::to_string(means.size()),
                   Table::pct(mean_cdf.fraction_above(0.0)),
                   Table::fmt(mean_cdf.value_at_fraction(0.5), 1) + " ms"});
  summary.add_row({"median", std::to_string(medians.size()),
                   Table::pct(median_cdf.fraction_above(0.0)),
                   Table::fmt(median_cdf.value_at_fraction(0.5), 1) + " ms"});
  bench::emit(summary);

  const auto ks = stats::ks_two_sample(mean_cdf.sorted_values(),
                                       median_cdf.sorted_values());
  bench::notef("KS distance between the two CDFs: %.3f (p = %.3f)%s\n",
               ks.statistic, ks.p_value,
               ks.p_value > 0.05 ? " -- statistically indistinguishable" : "");
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig06_median")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
