// Validation: triangulated propagation-delay estimates (the IDMaps-style
// cross-check the paper mentions in §2 — its tool suite can independently
// regenerate Francis et al.'s graphs).
#include "bench_util.h"

#include "core/triangulation.h"

namespace pathsel {
namespace {

void run() {
  bench::print_experiment_header(
      "Validation: propagation triangulation",
      "triangle-inequality bounds on pairwise propagation delay (UW3)",
      "estimates cluster near the measured value: the estimate/actual CDF "
      "rises steeply just above 1 (cf. Francis et al. [FJP+99])");
  auto catalog = bench::make_catalog();

  core::BuildOptions opt;
  opt.min_samples = bench::scaled_min_samples();
  opt.keep_samples = true;
  const auto table = core::PathTable::build(catalog.by_name("UW3"), opt);
  const auto results = core::triangulate_propagation(table);
  const auto cdf = core::triangulation_accuracy_cdf(results);

  bench::emit_series("triangulated estimate / measured propagation",
               {bench::cdf_series(cdf, "UW3 pairs", 0.0, 0.98)});

  std::size_t bracketed = 0;
  for (const auto& r : results) {
    if (r.lower <= r.actual + 1e-9 && r.actual <= r.upper + 1e-9) ++bracketed;
  }
  Table summary{"triangulation summary"};
  summary.set_header({"pairs", "% bracketed by bounds", "median ratio",
                      "p90 ratio"});
  summary.add_row({std::to_string(results.size()),
                   Table::pct(static_cast<double>(bracketed) /
                              static_cast<double>(results.size())),
                   Table::fmt(cdf.value_at_fraction(0.5), 2),
                   Table::fmt(cdf.value_at_fraction(0.9), 2)});
  bench::emit(summary);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "validation_triangulation")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
