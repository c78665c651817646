// Figure 3: CDF of the difference between the mean loss rate on each path
// and the best composed loss rate of an alternate path.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/figures.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 3", "CDF of loss-rate improvement (default - best alternate)",
      "75-85% of paths have a lower-loss alternate; 5-50% gain >= 5 "
      "percentage points (D2 strongest); vertical line at 0 = lossless pairs");
  auto catalog = bench::make_catalog();

  std::vector<Series> series;
  Table summary{"Figure 3 summary"};
  summary.set_header(
      {"dataset", "pairs", "% better", "% gain >= 5pp", "% both lossless"});
  for (const char* name : {"UW1", "UW3", "D2-NA", "D2"}) {
    core::BuildOptions opt;
    opt.min_samples = bench::scaled_min_samples();
    const auto table = core::PathTable::build(catalog.by_name(name), opt);
    core::AnalyzerOptions analyze;
    analyze.metric = core::Metric::kLoss;
    const auto results = core::from_pairs(
        core::analyze_alternate_paths(table, analyze), analyze.metric);
    const auto cdf = core::improvement_cdf(results);
    std::size_t lossless = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results.default_value[i] == 0.0 &&
          results.alternate_value[i] == 0.0) {
        ++lossless;
      }
    }
    series.push_back(bench::cdf_series(cdf, name));
    summary.add_row({name, std::to_string(results.size()),
                     Table::pct(cdf.fraction_above(0.0)),
                     Table::pct(cdf.fraction_above(0.05)),
                     Table::pct(static_cast<double>(lossless) /
                                static_cast<double>(results.size()))});
  }
  bench::emit_series("Figure 3: loss-rate improvement CDF", series);
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig03_loss_diff")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
