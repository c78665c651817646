#include "matrix/report.h"

#include <algorithm>
#include <sstream>

#include "core/result_columns.h"
#include "util/codec.h"
#include "util/table.h"

namespace pathsel::matrix {

namespace {

struct Marginal {
  std::string value;
  std::size_t cells = 0;     // ok cells carrying this axis value
  std::size_t degraded = 0;
  double better_sum = 0.0;
  std::size_t pairs_sum = 0;
};

// One marginal table per axis, accumulated over summaries in index order,
// with rows in the grid's declared value order.  A summary's axis value is
// read back through its cell (`specs[s.index]`): summaries carry the
// effective min_samples floor, the samples axis the declared one (possibly
// 0 = scale-derived).
void render_marginal(std::ostringstream& os, const GridAxis& axis,
                     const GridConfig& grid,
                     const std::vector<CellSpec>& specs,
                     const std::vector<CellSummary>& summaries) {
  const std::size_t n_values = axis.size(grid);
  if (n_values < 2) return;  // a one-value axis has no marginal
  std::vector<Marginal> marginals(n_values);
  for (std::size_t i = 0; i < n_values; ++i) {
    marginals[i].value = axis.report_label(axis.value(grid, i));
  }
  for (const CellSummary& s : summaries) {
    const std::string value = axis.report_label(specs[s.index]);
    for (Marginal& m : marginals) {
      if (m.value != value) continue;
      if (s.ok) {
        ++m.cells;
        m.better_sum += s.better;
        m.pairs_sum += s.pairs;
      } else {
        ++m.degraded;
      }
      break;
    }
  }
  Table table{std::string{"Marginal: "} + axis.heading};
  table.set_header(
      {axis.heading, "cells", "degraded", "mean better", "mean pairs"});
  for (const Marginal& m : marginals) {
    const double n = m.cells == 0 ? 1.0 : static_cast<double>(m.cells);
    table.add_row({m.value, std::to_string(m.cells),
                   std::to_string(m.degraded),
                   m.cells == 0 ? "-" : Table::pct(m.better_sum / n, 1),
                   m.cells == 0
                       ? "-"
                       : Table::fmt(static_cast<double>(m.pairs_sum) / n, 1)});
  }
  table.print(os);
  os << "\n";
}

std::string summary_label(const CellSummary& s) {
  return s.dataset + " fault=" + shortest_text(s.fault) + " " + s.metric +
         " " + s.policy + " ms=" + std::to_string(s.min_samples) +
         " seed=" + std::to_string(s.seed);
}

}  // namespace

std::string render_matrix_report(const GridConfig& grid,
                                 std::uint64_t grid_fp,
                                 std::vector<CellSummary> summaries) {
  std::sort(summaries.begin(), summaries.end(),
            [](const CellSummary& a, const CellSummary& b) {
              return a.index < b.index;
            });

  std::ostringstream os;
  os << "pathsel matrix report v1\n";
  os << "grid: " << grid.name << "\n";
  os << "fingerprint: " << codec::to_text(codec::Hex{grid_fp}) << "\n";
  os << "scale: " << shortest_text(grid.scale) << "\n";
  os << "cells: " << summaries.size() << "\n";
  std::size_t degraded = 0;
  for (const CellSummary& s : summaries) {
    if (!s.ok) ++degraded;
  }
  os << "degraded: " << degraded << "\n\n";

  Table cells{"Cells"};
  cells.set_header({"cell", "dataset", "fault", "metric", "policy", "ms",
                    "seed", "pairs", "better", "sig b/i/w", "found k",
                    "coverage"});
  for (const CellSummary& s : summaries) {
    std::vector<std::string> row{std::to_string(s.index), s.dataset,
                                 shortest_text(s.fault), s.metric, s.policy,
                                 std::to_string(s.min_samples),
                                 std::to_string(s.seed)};
    if (!s.ok) {
      row.insert(row.end(), {"-", "-", "-", "-", "-"});
    } else {
      row.push_back(std::to_string(s.pairs));
      row.push_back(Table::pct(s.better, 1));
      row.push_back(s.has_sig ? Table::pct(s.sig_better, 1) + "/" +
                                    Table::pct(s.sig_indeterminate, 1) + "/" +
                                    Table::pct(s.sig_worse, 1)
                              : "-");
      row.push_back(s.has_sig ? "-" : Table::pct(s.found_full, 1));
      row.push_back(Table::pct(s.coverage, 1));
    }
    cells.add_row(std::move(row));
  }
  cells.print(os);
  os << "\n";
  for (const CellSummary& s : summaries) {
    if (!s.ok) os << "cell " << s.index << " degraded: " << s.error << "\n";
  }
  if (degraded != 0) os << "\n";

  const std::vector<CellSpec> specs = expand_cells(grid);
  for (const GridAxis& axis : kGridAxes) {
    render_marginal(os, axis, grid, specs, summaries);
  }

  // Extremes over ok cells, by the better fraction.  Ties break toward the
  // lower index (stable order).
  const CellSummary* best = nullptr;
  const CellSummary* worst = nullptr;
  for (const CellSummary& s : summaries) {
    if (!s.ok) continue;
    if (best == nullptr || s.better > best->better) best = &s;
    if (worst == nullptr || s.better < worst->better) worst = &s;
  }
  if (best != nullptr && worst != nullptr) {
    os << "best cell:  #" << best->index << " (" << summary_label(*best)
       << ") better=" << Table::pct(best->better, 1) << "\n";
    os << "worst cell: #" << worst->index << " (" << summary_label(*worst)
       << ") better=" << Table::pct(worst->better, 1) << "\n";
    os << "spread: " << Table::fmt((best->better - worst->better) * 100.0, 1)
       << " points\n";
  } else {
    os << "no ok cells: every cell degraded\n";
  }
  return os.str();
}

}  // namespace pathsel::matrix
