// Table 3: percentage of paths whose loss-rate difference between the best
// alternate and the default is significant at the 95% level.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Table 3", "Welch t-test classification of loss differences (95%)",
      "a zero class appears (pairs with no losses at all); the remaining "
      "pairs split between better/indeterminate/worse with better dominant "
      "in the lossy 1995 datasets");
  auto catalog = bench::make_catalog();

  Table table{"Table 3: loss significance"};
  table.set_header({"dataset", "better", "indeterminate", "zero", "worse"});
  for (const char* name : {"UW1", "UW3", "D2-NA", "D2"}) {
    core::BuildOptions opt;
    opt.min_samples = bench::scaled_min_samples();
    const auto ptable = core::PathTable::build(catalog.by_name(name), opt);
    core::AnalyzerOptions analyze;
    analyze.metric = core::Metric::kLoss;
    const auto results = core::from_pairs(
        core::analyze_alternate_paths(ptable, analyze), analyze.metric);
    const auto tally = core::classify_significance(results);
    table.add_row({name, Table::pct(tally.better),
                   Table::pct(tally.indeterminate), Table::pct(tally.zero),
                   Table::pct(tally.worse)});
  }
  bench::emit(table);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "table3_loss_ttest")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
