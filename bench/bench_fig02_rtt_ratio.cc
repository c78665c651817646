// Figure 2: CDF of the ratio between the default mean RTT and the best
// alternate's mean RTT (values > 1: alternate superior).
#include "bench_util.h"

#include "core/alternate.h"
#include "core/figures.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 2", "CDF of relative RTT (default / best alternate)",
      "~10% of paths have >= 50% better latency via an alternate; the "
      "D2 vs D2-NA imbalance of Figure 1 largely disappears");
  auto catalog = bench::make_catalog();

  std::vector<Series> series;
  Table summary{"Figure 2 summary"};
  summary.set_header({"dataset", "% ratio > 1", "% ratio >= 1.5"});
  for (const char* name : {"UW1", "UW3", "D2-NA", "D2"}) {
    core::BuildOptions opt;
    opt.min_samples = bench::scaled_min_samples();
    const auto table = core::PathTable::build(catalog.by_name(name), opt);
    const auto results = core::from_pairs(
        core::analyze_alternate_paths(table, {}), core::Metric::kRtt);
    const auto cdf = core::ratio_cdf(results);
    series.push_back(bench::cdf_series(cdf, name));
    summary.add_row({name, Table::pct(cdf.fraction_above(1.0)),
                     Table::pct(cdf.fraction_above(1.5))});
  }
  bench::emit_series("Figure 2: relative RTT CDF", series);
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig02_rtt_ratio")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
