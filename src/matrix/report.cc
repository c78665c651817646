#include "matrix/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "core/result_columns.h"
#include "util/codec.h"
#include "util/table.h"

namespace pathsel::matrix {

namespace {

// Shortest representation that round-trips to exactly `v`: distinct grid
// values stay distinct in the report, round ones print as written ("0.15").
std::string shortest(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;
}

struct Marginal {
  std::string value;
  std::size_t cells = 0;     // ok cells carrying this axis value
  std::size_t degraded = 0;
  double better_sum = 0.0;
  std::size_t pairs_sum = 0;
};

// One marginal table per axis, accumulated over summaries in index order.
// `axis_of` maps a summary to its rendered axis value; `order` fixes the row
// order (the grid's declared value order).
void render_marginal(std::ostringstream& os, const std::string& axis,
                     const std::vector<std::string>& order,
                     const std::vector<CellSummary>& summaries,
                     const std::function<std::string(const CellSummary&)>&
                         axis_of) {
  if (order.size() < 2) return;  // a one-value axis has no marginal
  std::vector<Marginal> marginals;
  marginals.reserve(order.size());
  for (const std::string& value : order) {
    Marginal m;
    m.value = value;
    marginals.push_back(std::move(m));
  }
  for (const CellSummary& s : summaries) {
    const std::string value = axis_of(s);
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
  Table table{"Marginal: " + axis};
  table.set_header({axis, "cells", "degraded", "mean better", "mean pairs"});
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

std::string fault_label(double fault) { return shortest(fault); }

std::string summary_label(const CellSummary& s) {
  return s.dataset + " fault=" + fault_label(s.fault) + " " + s.metric + " " +
         s.policy + " ms=" + std::to_string(s.min_samples) + " seed=" +
         std::to_string(s.seed);
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
  os << "scale: " << shortest(grid.scale) << "\n";
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
                                 fault_label(s.fault), s.metric, s.policy,
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

  std::vector<std::string> fault_order;
  fault_order.reserve(grid.faults.size());
  for (const double f : grid.faults) fault_order.push_back(fault_label(f));
  std::vector<std::string> metric_order;
  metric_order.reserve(grid.metrics.size());
  for (const core::Metric m : grid.metrics) {
    metric_order.push_back(core::metric_name(m));
  }
  std::vector<std::string> policy_order;
  policy_order.reserve(grid.policies.size());
  for (const PolicySpec& p : grid.policies) policy_order.push_back(p.label());
  std::vector<std::string> seed_order;
  seed_order.reserve(grid.seeds.size());
  for (const std::uint64_t v : grid.seeds) {
    seed_order.push_back(std::to_string(v));
  }
  std::vector<std::string> samples_order;
  samples_order.reserve(grid.samples.size());
  for (const int v : grid.samples) samples_order.push_back(std::to_string(v));

  render_marginal(os, "dataset", grid.datasets, summaries,
                  [](const CellSummary& s) { return s.dataset; });
  render_marginal(os, "fault", fault_order, summaries,
                  [](const CellSummary& s) { return fault_label(s.fault); });
  render_marginal(os, "metric", metric_order, summaries,
                  [](const CellSummary& s) { return s.metric; });
  render_marginal(os, "policy", policy_order, summaries,
                  [](const CellSummary& s) { return s.policy; });
  // The samples axis is declared (possibly 0 = scale-derived) but summaries
  // carry the effective floor, so map each summary back through its cell.
  if (grid.samples.size() > 1) {
    const std::vector<CellSpec> specs = expand_cells(grid);
    render_marginal(os, "min_samples", samples_order, summaries,
                    [&specs](const CellSummary& s) {
                      return std::to_string(specs[s.index].min_samples);
                    });
  }
  render_marginal(os, "seed", seed_order, summaries,
                  [](const CellSummary& s) { return std::to_string(s.seed); });

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
