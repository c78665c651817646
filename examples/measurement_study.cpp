// A miniature end-to-end reproduction of the paper's core study: regenerate
// a UW3-like dataset, then produce the Figure 1/Figure 3 summaries and the
// Table 2 significance classification for it.
#include <iostream>

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/catalog.h"
#include "util/table.h"

using namespace pathsel;

int main() {
  meas::CatalogConfig cfg;
  cfg.seed = 2042;
  cfg.scale = 0.25;  // a quarter-length trace keeps this example fast
  meas::Catalog catalog{cfg};
  const meas::Dataset& uw3 = catalog.by_name("UW3");
  std::printf("dataset %s: %zu hosts, %zu completed measurements\n",
              uw3.name.c_str(), uw3.hosts.size(), uw3.completed_count());

  core::BuildOptions build;
  build.min_samples = 8;
  const auto table = core::PathTable::build(uw3, build);
  std::printf("path-quality graph: %zu measured undirected paths\n\n",
              table.edges().size());

  // Figure 1 flavor: round-trip time.
  const core::ResultColumns rtt = core::from_pairs(
      core::analyze_alternate_paths(table, {}), core::Metric::kRtt);
  const auto rtt_cdf = core::improvement_cdf(rtt);
  Table fig1{"RTT alternates (Figure 1 flavor)"};
  fig1.set_header({"pairs", "% better", "% gain >= 20ms", "median gain"});
  fig1.add_row({std::to_string(rtt.size()),
                Table::pct(rtt_cdf.fraction_above(0.0)),
                Table::pct(rtt_cdf.fraction_above(20.0)),
                Table::fmt(rtt_cdf.value_at_fraction(0.5), 1) + " ms"});
  fig1.print(std::cout);

  // Figure 3 flavor: loss rate.
  core::AnalyzerOptions loss_opt;
  loss_opt.metric = core::Metric::kLoss;
  const core::ResultColumns loss = core::from_pairs(
      core::analyze_alternate_paths(table, loss_opt), core::Metric::kLoss);
  const auto loss_cdf = core::improvement_cdf(loss);
  Table fig3{"loss alternates (Figure 3 flavor)"};
  fig3.set_header({"pairs", "% better", "% gain >= 5pp"});
  fig3.add_row({std::to_string(loss.size()),
                Table::pct(loss_cdf.fraction_above(0.0)),
                Table::pct(loss_cdf.fraction_above(0.05))});
  fig3.print(std::cout);

  // Table 2 flavor: is the RTT difference statistically significant?
  const auto tally = core::classify_significance(rtt);
  Table table2{"95% significance (Table 2 flavor)"};
  table2.set_header({"better", "indeterminate", "worse"});
  table2.add_row({Table::pct(tally.better), Table::pct(tally.indeterminate),
                  Table::pct(tally.worse)});
  table2.print(std::cout);
  return 0;
}
