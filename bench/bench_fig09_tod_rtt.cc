// Figure 9: RTT improvement CDF broken down by time of day (UW3).
#include "bench_util.h"

#include "core/figures.h"
#include "core/timeofday.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 9", "UW3 RTT improvement CDF by weekday period / weekend",
      "the effect holds at every time of day; alternates do best during "
      "peak working hours (0600-1200 PST) and least on weekends/nights");
  auto catalog = bench::make_catalog();

  core::TimeOfDayOptions opt;
  opt.min_samples = bench::scaled_min_samples(6);
  const auto bins = core::analyze_by_time_of_day(catalog.by_name("UW3"), opt);

  std::vector<Series> series;
  Table summary{"Figure 9 summary"};
  summary.set_header({"bin", "pairs", "% better", "median improvement (ms)"});
  for (const auto& bin : bins) {
    const auto cdf = core::improvement_cdf(bin.results);
    if (cdf.empty()) continue;
    series.push_back(bench::cdf_series(cdf, bin.label));
    summary.add_row({bin.label, std::to_string(bin.results.size()),
                     Table::pct(cdf.fraction_above(0.0)),
                     Table::fmt(cdf.value_at_fraction(0.5), 1)});
  }
  bench::emit_series("Figure 9: RTT improvement CDF by time of day",
               series);
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig09_tod_rtt")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
