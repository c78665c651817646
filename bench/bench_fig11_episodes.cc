// Figure 11: long-term averaging vs simultaneous measurement.  UW4-B is the
// long-term time-average CDF; UW4-A yields a pair-averaged CDF (per-episode
// best alternates averaged per pair) and an unaveraged CDF (one point per
// pair per episode).
#include "bench_util.h"

#include "core/alternate.h"
#include "core/episodes.h"
#include "core/figures.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 11", "UW4-B vs pair-averaged UW4-A vs unaveraged UW4-A (RTT, ms)",
      "good alternates are slightly MORE likely on a fine-grained timescale; "
      "the unaveraged curve has much broader tails in both directions");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  const auto uw4b_table = core::PathTable::build(catalog.by_name("UW4-B"), opt);
  const auto uw4b_results = core::from_pairs(
      core::analyze_alternate_paths(uw4b_table, {}), core::Metric::kRtt);
  const auto uw4b_cdf = core::improvement_cdf(uw4b_results);

  const auto episodes = core::analyze_episodes(catalog.by_name("UW4-A"), {});

  bench::emit_series("Figure 11: averaging-timescale comparison",
               {bench::cdf_series(uw4b_cdf, "UW4-B"),
                bench::cdf_series(episodes.pair_averaged, "pair-averaged UW4-A"),
                bench::cdf_series(episodes.unaveraged, "unaveraged UW4-A")});

  Table summary{"Figure 11 summary"};
  summary.set_header({"curve", "points", "% better", "p5 (ms)", "p95 (ms)"});
  auto row = [&summary](const char* label, const stats::EmpiricalCdf& cdf) {
    summary.add_row({label, std::to_string(cdf.size()),
                     Table::pct(cdf.fraction_above(0.0)),
                     Table::fmt(cdf.value_at_fraction(0.05), 1),
                     Table::fmt(cdf.value_at_fraction(0.95), 1)});
  };
  row("UW4-B (time-averaged)", uw4b_cdf);
  row("pair-averaged UW4-A", episodes.pair_averaged);
  row("unaveraged UW4-A", episodes.unaveraged);
  bench::emit(summary);
  bench::notef("episodes analyzed: %zu\n", episodes.episodes_analyzed);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig11_episodes")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
