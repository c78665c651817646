// Table 2: percentage of paths whose RTT difference between the best
// alternate and the default is significant at the 95% level.
#include "bench_util.h"

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Table 2", "Welch t-test classification of RTT differences (95%)",
      "better 20-32%, indeterminate 32-41%, worse 29-48% "
      "(UW1 28/41/31, UW3 30/41/29, D2-NA 20/32/48, D2 32/37/31)");
  auto catalog = bench::make_catalog();

  Table table{"Table 2: RTT significance"};
  table.set_header({"dataset", "better", "indeterminate", "worse"});
  for (const char* name : {"UW1", "UW3", "D2-NA", "D2"}) {
    core::BuildOptions opt;
    opt.min_samples = bench::scaled_min_samples();
    const auto ptable = core::PathTable::build(catalog.by_name(name), opt);
    const auto results = core::from_pairs(
        core::analyze_alternate_paths(ptable, {}), core::Metric::kRtt);
    const auto tally = core::classify_significance(results);
    table.add_row({name, Table::pct(tally.better),
                   Table::pct(tally.indeterminate), Table::pct(tally.worse)});
  }
  bench::emit(table);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "table2_rtt_ttest")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
