// Figure 14: scatter of per-AS appearances in default paths (x) vs best
// alternate paths (y) for the UW1 dataset.
#include "bench_util.h"

#include "core/as_analysis.h"
#include "core/result_columns.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 14", "per-AS appearances: default paths (x) vs best alternates (y), UW1",
      "no significant number of ASes is substantially more represented in "
      "either the defaults or the alternates (points hug the diagonal)");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  const auto table = core::PathTable::build(catalog.by_name("UW1"), opt);
  const auto results = core::from_pairs(
      core::analyze_alternate_paths(table, {}), core::Metric::kRtt);
  const auto apps = core::as_appearances(table, results);

  std::printf("# Figure 14: as_id,default_count,alternate_count\n");
  std::printf("as,default,alternate\n");
  std::string csv = "as,default,alternate";
  std::size_t above = 0;
  std::size_t below = 0;
  for (const auto& a : apps) {
    char line[96];
    std::snprintf(line, sizeof line, "%d,%zu,%zu", a.as.value(),
                  a.default_count, a.alternate_count);
    std::printf("%s\n", line);
    csv += '\n';
    csv += line;
    // Count strong outliers: >4x away from the diagonal with volume.
    if (a.alternate_count > 4 * std::max<std::size_t>(a.default_count, 1)) {
      ++above;
    }
    if (a.default_count > 4 * std::max<std::size_t>(a.alternate_count, 1)) {
      ++below;
    }
  }
  bench::note(csv);
  Table summary{"Figure 14 summary"};
  summary.set_header({"ASes", ">4x alternate-heavy", ">4x default-heavy"});
  summary.add_row({std::to_string(apps.size()), std::to_string(above),
                   std::to_string(below)});
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig14_as_scatter")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
