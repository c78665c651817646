// Figure 12: effect of greedily removing the ten hosts with the greatest
// impact on the RTT improvement CDF (UW3).
#include "bench_util.h"

#include "core/contribution.h"
#include "core/figures.h"
#include "stats/ks.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 12", "UW3 RTT improvement CDF with and without the 'top ten' hosts",
      "removing the top ten hosts does NOT dramatically shift the CDF: the "
      "superior alternates are not attributable to a few hosts");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  const auto result = core::remove_top_hosts(table, core::Metric::kRtt, 10);

  const auto full_cdf = core::improvement_cdf(result.full_results);
  const auto reduced_cdf = core::improvement_cdf(result.reduced_results);
  bench::emit_series("Figure 12: top-ten removal",
               {bench::cdf_series(full_cdf, "all UW3 hosts"),
                bench::cdf_series(reduced_cdf, "without 'top ten'")});

  Table summary{"Figure 12 summary"};
  summary.set_header({"curve", "pairs", "% better", "median improvement (ms)"});
  summary.add_row({"all hosts", std::to_string(result.full_results.size()),
                   Table::pct(full_cdf.fraction_above(0.0)),
                   Table::fmt(full_cdf.value_at_fraction(0.5), 1)});
  summary.add_row({"without top ten",
                   std::to_string(result.reduced_results.size()),
                   Table::pct(reduced_cdf.fraction_above(0.0)),
                   Table::fmt(reduced_cdf.value_at_fraction(0.5), 1)});
  bench::emit(summary);

  const auto ks = stats::ks_two_sample(full_cdf.sorted_values(),
                                       reduced_cdf.sorted_values());
  bench::notef("KS distance between full and reduced CDFs: %.3f (p = %.3g)\n",
               ks.statistic, ks.p_value);
  std::string removed = "removed hosts (greedy order):";
  for (const auto h : result.removed) {
    removed += ' ';
    removed += std::to_string(h.value());
  }
  std::printf("%s\n", removed.c_str());
  bench::note(removed);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig12_top_ten")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
