// Figure 16: scatter of the propagation-delay component (y) of each pair's
// mean-RTT improvement (x), with the paper's six-group classification.
#include "bench_util.h"

#include "core/propagation.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Figure 16", "propagation vs total RTT difference per pair (UW3)",
      "points mix propagation- and congestion-driven gains; group 6 "
      "(alternate wins despite longer propagation) clearly outnumbers its "
      "mirror group 3: many alternates go out of their way to avoid "
      "congestion");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  opt.keep_samples = true;
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  const auto analysis = core::analyze_propagation(table);

  std::printf("# Figure 16: total_diff,prop_diff,group\n");
  std::printf("total,prop,group\n");
  std::string csv = "total,prop,group";
  for (std::size_t i = 0; i < analysis.scatter.size();
       i += std::max<std::size_t>(1, analysis.scatter.size() / 200)) {
    const auto& p = analysis.scatter[i];
    char line[64];
    std::snprintf(line, sizeof line, "%.2f,%.2f,%d", p.total_diff, p.prop_diff,
                  p.group);
    std::printf("%s\n", line);
    csv += '\n';
    csv += line;
  }
  bench::note(csv);

  Table summary{"Figure 16 group counts"};
  summary.set_header({"group", "meaning", "pairs"});
  const char* meaning[6] = {
      "alt better in both",       "alt prop better, queueing worse",
      "default wins despite prop", "default better in both",
      "default prop better, queue worse",
      "alt wins despite longer prop (avoids congestion)"};
  for (int g = 0; g < 6; ++g) {
    summary.add_row({std::to_string(g + 1), meaning[g],
                     std::to_string(analysis.group_counts[static_cast<std::size_t>(g)])});
  }
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "fig16_prop_scatter")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
