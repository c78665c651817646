// Figure 13: CDF over hosts of the normalized improvement contribution (how
// often a host appears as the intermediary of a superior one-hop alternate,
// weighted by the improvement).
#include "bench_util.h"

#include "core/contribution.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 13", "CDF of per-host normalized improvement contribution (UW3)",
      "the distribution lacks a heavy tail: no small set of hosts "
      "contributes an outsized share of the superior alternates");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  const auto contributions =
      core::improvement_contributions(table, core::Metric::kRtt);

  stats::EmpiricalCdf cdf;
  for (const auto& c : contributions) cdf.add(c.normalized);
  bench::emit_series("Figure 13: normalized improvement contribution",
               {bench::cdf_series(cdf, "UW3 hosts", 0.0, 1.0)});

  Table summary{"Figure 13 summary"};
  summary.set_header({"hosts", "max contribution", "p90", "mean"});
  summary.add_row({std::to_string(contributions.size()),
                   Table::fmt(cdf.value_at_fraction(1.0), 0),
                   Table::fmt(cdf.value_at_fraction(0.9), 0), "100"});
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig13_contribution")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
