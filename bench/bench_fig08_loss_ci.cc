// Figure 8: loss-rate improvement CDF for UW3 with 95% confidence intervals.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 8", "UW3 loss improvement CDF with per-pair 95% CIs",
      "loss CIs are wider than RTT CIs (each loss sample is binary, so the "
      "standard deviation is large)");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  core::AnalyzerOptions analyze;
  analyze.metric = core::Metric::kLoss;
  const auto results = core::from_pairs(
      core::analyze_alternate_paths(table, analyze), analyze.metric);
  const auto points = core::confidence_cdf(results);

  std::printf("# Figure 8: difference,fraction,ci_lo,ci_hi (every 8th point)\n");
  std::printf("difference,fraction,ci_lo,ci_hi\n");
  std::string csv = "difference,fraction,ci_lo,ci_hi";
  for (std::size_t i = 0; i < points.size(); i += 8) {
    const auto& p = points[i];
    char line[96];
    std::snprintf(line, sizeof line, "%.5f,%.4f,%.5f,%.5f", p.difference,
                  p.fraction, p.difference - p.half_width,
                  p.difference + p.half_width);
    std::printf("%s\n", line);
    csv += '\n';
    csv += line;
  }
  bench::note(csv);

  double mean_hw = 0.0;
  for (const auto& p : points) mean_hw += p.half_width;
  mean_hw /= static_cast<double>(points.size());
  Table summary{"Figure 8 summary"};
  summary.set_header({"pairs", "mean CI half-width (loss rate)"});
  summary.add_row({std::to_string(points.size()), Table::fmt(mean_hw, 4)});
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig08_loss_ci")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
