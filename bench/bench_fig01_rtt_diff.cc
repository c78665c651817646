// Figure 1: CDF of the difference between the mean round-trip time on each
// path and the best mean RTT of an alternate path.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/figures.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 1", "CDF of mean RTT improvement (default - best alternate), ms",
      "30-55% of paths have a better alternate; a smaller fraction gains "
      ">= 20 ms; D2 shifted right of D2-NA by trans-oceanic latency");
  auto catalog = bench::make_catalog();

  std::vector<Series> series;
  Table summary{"Figure 1 summary"};
  summary.set_header({"dataset", "pairs", "% better", "% gain >= 20ms"});
  for (const char* name : {"UW1", "UW3", "D2-NA", "D2"}) {
    core::BuildOptions opt;
    opt.min_samples = bench::scaled_min_samples();
    const auto table = core::PathTable::build(catalog.by_name(name), opt);
    const auto results = core::from_pairs(
        core::analyze_alternate_paths(table, {}), core::Metric::kRtt);
    const auto cdf = core::improvement_cdf(results);
    series.push_back(bench::cdf_series(cdf, name));
    summary.add_row({name, std::to_string(results.size()),
                     Table::pct(cdf.fraction_above(0.0)),
                     Table::pct(cdf.fraction_above(20.0))});
  }
  bench::emit_series("Figure 1: RTT improvement CDF (ms)", series);
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig01_rtt_diff")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
