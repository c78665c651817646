// The merged matrix report over synthetic summaries: no collection, two
// values on every axis, so every marginal table renders.
//
// tests/golden/matrix/matrix_report.golden (checked by golden_cli.sh) comes
// from a real run whose grid varies only faults, metrics and policies; this
// golden also covers the dataset, min_samples and seed marginals, a
// degraded cell, and the fault value 0.15, which the report prints as
// "0.15" while cell labels and the canonical grid print it as
// "0.14999999999999999".  The summary values are dyadic fractions, so no
// floating-point choice can move the bytes.
//
// Regenerate (only for an intended report change):
//   PATHSEL_UPDATE_GOLDEN=1 ctest -R MatrixReport
#include "matrix/report.h"

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_columns.h"
#include "matrix/cell.h"
#include "matrix/grid.h"

namespace pathsel::matrix {
namespace {

constexpr char kMarginalGrid[] =
    "name = marginals\n"
    "scale = 0.25\n"
    "[datasets]\nvalues = UW3, D2\n"
    "[faults]\nvalues = 0, 0.15\n"
    "[metrics]\nvalues = rtt, loss\n"
    "[policies]\nvalues = one-hop, disjoint:2\n"
    "[samples]\nvalues = 0, 5\n"
    "[seeds]\nvalues = 1999, 7\n";

constexpr std::size_t kDegradedCell = 37;

// One summary per cell, in reverse index order (the report sorts them).
std::vector<CellSummary> synthetic_summaries(const GridConfig& grid) {
  const std::uint64_t grid_fp = grid_fingerprint(grid);
  std::vector<CellSummary> out;
  for (const CellSpec& cell : expand_cells(grid)) {
    const std::size_t i = cell.index;
    CellSummary s;
    s.grid_fp = grid_fp;
    s.cell_fp = cell_fingerprint(grid_fp, cell);
    s.index = i;
    s.dataset = cell.dataset;
    s.fault = cell.fault;
    s.metric = core::metric_name(cell.metric);
    s.policy = cell.policy.label();
    s.min_samples = effective_min_samples(grid, cell);
    s.seed = cell.seed;
    if (i == kDegradedCell) {
      s.ok = false;
      s.error = "invalid argument: disjoint k=2 needs at least 4 hosts";
    } else {
      s.hosts = 20;
      s.measurements = 1000 + i;
      s.completed = 900 + i;
      s.usable_edges = 150 + i % 5;
      s.pairs = 300 + (i * 7) % 50;
      s.coverage = static_cast<double>(48 + i % 16) / 64.0;
      s.better = static_cast<double>((i * 37) % 64) / 64.0;
      s.has_sig = cell.policy.kind != PolicyKind::kDisjoint;
      if (s.has_sig) {
        s.sig_better = static_cast<double>(i % 8) / 32.0;
        s.sig_indeterminate = 0.5;
        s.sig_worse = 0.5 - s.sig_better;
      } else {
        s.found_full = static_cast<double>(64 - i % 4) / 64.0;
      }
    }
    out.push_back(std::move(s));
  }
  return {out.rbegin(), out.rend()};
}

std::string check_golden(const std::string& name, const std::string& bytes) {
  const std::string path = std::string{PATHSEL_GOLDEN_DIR} + "/matrix/" + name;
  const char* update = std::getenv("PATHSEL_UPDATE_GOLDEN");
  if (update != nullptr && std::string{update} != "0") {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return bytes;
  }
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(bytes, golden) << name << " differs from the golden";
  return golden;
}

TEST(MatrixReport, EveryAxisMarginalMatchesTheGolden) {
  const Result<GridConfig> parsed = parse_grid(kMarginalGrid);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const GridConfig& grid = parsed.value();
  ASSERT_EQ(grid.cell_count(), 64u);

  const std::string report = render_matrix_report(
      grid, grid_fingerprint(grid), synthetic_summaries(grid));
  check_golden("report_marginals.golden", report);

  for (const char* axis :
       {"dataset", "fault", "metric", "policy", "min_samples", "seed"}) {
    EXPECT_NE(report.find(std::string{"== Marginal: "} + axis + " =="),
              std::string::npos)
        << axis;
  }
  EXPECT_NE(report.find("cell 37 degraded: "), std::string::npos);
  // The report prints the shortest round-trip spelling of a fault; the cell
  // label keeps %.17g, which is what the cell fingerprint hashes.
  EXPECT_NE(report.find("\n0.15   "), std::string::npos);
  EXPECT_EQ(report.find("0.1499"), std::string::npos);
  EXPECT_EQ(cell_label(expand_cells(grid)[63]),
            "D2 fault=0.14999999999999999 loss disjoint:2 ms=5 seed=7");
}

TEST(MatrixReport, MinSamplesMarginalKeysOnTheDeclaredValue) {
  // Summaries carry the effective floor (8 for the declared 0 at scale
  // 0.25); the marginal rows stay the declared values 0 and 5, and the
  // degraded cell 37 (min_samples 0) counts against the 0 row.
  const GridConfig grid = parse_grid(kMarginalGrid).value();
  const std::string report = render_matrix_report(
      grid, grid_fingerprint(grid), synthetic_summaries(grid));
  const std::size_t at = report.find("== Marginal: min_samples ==");
  ASSERT_NE(at, std::string::npos);
  const std::string table = report.substr(at, report.find("\n\n", at) - at);
  EXPECT_NE(table.find("\n0            31     1 "), std::string::npos)
      << table;
  EXPECT_NE(table.find("\n5            32     0 "), std::string::npos)
      << table;
}

}  // namespace
}  // namespace pathsel::matrix
