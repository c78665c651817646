// The `whatif` workload: the scenario-matrix engine over an 8-cell grid.
//
// {UW3, UW1} x faults {0, 0.15} x {one-hop, disjoint:2}, rtt, scale 0.25, on
// the canonical world (the catalog's default seed): four distinct collections
// shared by eight cells, the same in every run.  --seed is only recorded: a
// seeded world, or a seeded order of the axes, changed the work and which
// worker ran which cell, and with them the unit time and the workers' peak
// memory.
//
// Set-up (repeated before every unit, median reported) is the pre-flight a
// user runs before a sweep: parse the grid, expand and fingerprint its cells, materialize each
// dataset's catalog spec (world generation, routing tables and host
// selection, so a grid no world can host is refused before any worker
// starts) and make a fresh work dir.  One unit is run_matrix with 2 forked
// workers and 1 thread per cell, then run_matrix again with `resume` set,
// which merges the finished summaries only.  Units repeat until the
// measuring time is used up; wall_s is the median unit.  The merge-only
// report must be byte-identical to the fan-out report, and no cell may be
// degraded.  A traced run counts the MetricsRegistry over unit 0; the cells
// run in forked workers, so only the parent's share shows there.
#include <string>
#include <vector>

#include "bench.h"
#include "matrix/engine.h"
#include "matrix/grid.h"
#include "meas/catalog.h"

namespace perfbench {
namespace {

using namespace pathsel;

constexpr int kWorkers = 2;
constexpr int kThreadsPerCell = 1;
constexpr int kSetupTrialsPerUnit = 2;

matrix::GridConfig whatif_grid() {
  matrix::GridConfig g;
  g.name = "whatif";
  g.scale = 0.25;
  g.datasets = {"UW3", "UW1"};
  g.faults = {0.0, 0.15};
  g.metrics = {core::Metric::kRtt};
  g.policies = {matrix::PolicySpec{},
                matrix::PolicySpec{matrix::PolicyKind::kDisjoint,
                                   core::Kernel::kAuto, 2}};
  g.samples = {0};
  g.seeds = {meas::CatalogConfig{}.seed};
  return g;
}

// The "degraded: N" line of a merged report.
long degraded_cells(const std::string& report) {
  const std::string key = "\ndegraded: ";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return -1;
  return std::stol(report.substr(at + key.size()));
}

}  // namespace

WorkloadResult run_whatif(const Options& options) {
  WorkloadResult result;
  result.context["workers"] = std::to_string(kWorkers);
  result.context["threads_per_cell"] = std::to_string(kThreadsPerCell);
  const std::string work_dir = options.work_dir + "/whatif/run";

  matrix::MatrixOptions run;
  run.grid = whatif_grid();
  run.work_dir = work_dir;
  run.workers = kWorkers;
  run.threads = kThreadsPerCell;
  matrix::MatrixOptions merge = run;
  merge.resume = true;
  result.context["cells"] = std::to_string(run.grid.cell_count());

  const std::string grid_text = matrix::canonical_grid(run.grid);
  result.context["grid"] = grid_text;
  // The set-up trials run before every unit, so that their median samples
  // the host over the whole run; the last one leaves the unit a fresh work
  // dir.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    {
      PB_SPAN("bench.cleanup");  // the previous unit's files, not timed
      result.check(fresh_directory(work_dir), "cannot prepare " + work_dir);
    }
    for (int i = 0; i < kSetupTrialsPerUnit; ++i) {
      PB_SPAN("bench.setup");
      const std::uint64_t start = now_ns();
      const Result<matrix::GridConfig> parsed = matrix::parse_grid(grid_text);
      bool ok = parsed.is_ok();
      if (ok) {
        const matrix::GridConfig& grid = parsed.value();
        const std::uint64_t grid_fp = matrix::grid_fingerprint(grid);
        for (const matrix::CellSpec& cell : matrix::expand_cells(grid)) {
          ok = ok && matrix::cell_fingerprint(grid_fp, cell) != 0;
        }
        meas::CatalogConfig config;
        config.seed = grid.seeds.front();
        config.scale = grid.scale;
        meas::Catalog catalog{config};
        for (const std::string& name : grid.datasets) {
          ok = ok && !catalog.spec(name).hosts.empty();
        }
      }
      ok = ok && fresh_directory(work_dir);
      setup_s.push_back(ms_between(start, now_ns()) / 1e3);
      result.check(ok, "cannot parse the grid or prepare " + work_dir);
    }
  };

  const double budget_ms = options.seconds * 1e3;
  const std::uint64_t run_start = now_ns();
  std::vector<double> wall_s;
  std::vector<double> untraced_wall_s;
  std::size_t cells = 0;
  long degraded = 0;
  for (int unit = 0;; ++unit) {
    set_up();
    const bool untraced =
        options.trace && unit > 0 &&
        ms_between(run_start, now_ns()) + median(wall_s) * 1e3 >= budget_ms;
    if (untraced) tracer().set_paused(true);
    const bool counted = options.trace && unit == 0;
    if (counted) start_counting();
    const std::uint64_t u0 = now_ns();
    matrix::MatrixReport fanned;
    {
      PB_SPAN("matrix.run");
      fanned = matrix::run_matrix(run);
    }
    matrix::MatrixReport merged;
    {
      PB_SPAN("matrix.merge");
      merged = matrix::run_matrix(merge);
    }
    const std::uint64_t u1 = now_ns();
    if (counted) result.counters = stop_counting();
    if (untraced) {
      tracer().set_paused(false);
      tracer().record("bench.untraced_unit", u0, u1);
    }

    bool ok = true;
    {
      PB_SPAN("check.whatif");
      result.check(fanned.status.is_ok(),
                   "fan-out run: " + fanned.status.to_string());
      result.check(merged.status.is_ok(),
                   "merge-only run: " + merged.status.to_string());
      ok = fanned.status.is_ok() && merged.status.is_ok();
      if (ok) {
        cells = fanned.cells_total;
        degraded = degraded_cells(fanned.report);
        // Every cell is an attempted operation; a degraded cell failed.
        result.attempted += cells;
        if (degraded != 0) {
          result.failed += degraded > 0 ? static_cast<std::uint64_t>(degraded)
                                        : cells;
          result.check_failures.push_back(std::to_string(degraded) +
                                          " degraded cells");
        }
        result.check(merged.cells_reused == merged.cells_total &&
                         merged.cells_run == 0,
                     "merge-only run re-ran cells");
        result.check(merged.report == fanned.report,
                     "merge-only report differs from the fan-out report");
      }
    }
    if (!ok) break;
    if (untraced) {
      untraced_wall_s.push_back(ms_between(u0, u1) / 1e3);
      break;
    }
    wall_s.push_back(ms_between(u0, u1) / 1e3);
    const double elapsed_ms = ms_between(run_start, now_ns());
    if (!options.trace && elapsed_ms + median(wall_s) * 1e3 * 0.5 >= budget_ms) {
      break;
    }
  }

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("wall_s", median(wall_s), "s", wall_s.size());
    result.set("peak_rss_mb", peak_rss_mb(true), "MiB");
    return result;
  }
  const auto totals = tracer().totals();
  const double units = static_cast<double>(wall_s.size());
  result.set("matrix.run_ms", self_ms_per_unit(totals, "matrix.run", units),
             "ms", wall_s.size());
  result.set("matrix.merge_ms", self_ms_per_unit(totals, "matrix.merge", units),
             "ms", wall_s.size());
  result.set("matrix.cells", static_cast<double>(cells), "count");
  result.set("matrix.cells_degraded",
             static_cast<double>(degraded > 0 ? degraded : 0), "count");
  if (!untraced_wall_s.empty() && !wall_s.empty()) {
    result.set("trace.overhead_frac",
               median(wall_s) / untraced_wall_s.front() - 1.0, "frac",
               wall_s.size());
  }
  return result;
}

}  // namespace perfbench
