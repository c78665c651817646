// Property tests for the scenario-grid parser.
//
// Every rejection — malformed key, empty axis, duplicate cell, absurd cross
// product — is a clean kInvalidArgument whose message names the offending
// line (FormatFuzz, in integration/format_fuzz_test.cc, runs the truncation,
// corruption and garbage attacks).  On top of the rejection catalogue this
// suite pins the identities the engine builds on: canonical round-trip
// stability, fingerprint sensitivity to every axis, and the fixed
// cell-expansion order.
#include "matrix/grid.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::matrix {
namespace {

using test::kFullGrid;

void expect_rejected(const std::string& text, const char* why) {
  const Result<GridConfig> parsed = parse_grid(text);
  ASSERT_FALSE(parsed.is_ok()) << why << "\n--- input ---\n" << text;
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << why;
  EXPECT_FALSE(parsed.status().message().empty()) << why;
}

TEST(GridParse, EmptyFileIsTheDefaultGrid) {
  const Result<GridConfig> parsed = parse_grid("");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const GridConfig& g = parsed.value();
  EXPECT_EQ(g.name, "matrix");
  EXPECT_EQ(g.cell_count(), 1u);
  EXPECT_EQ(g.datasets, std::vector<std::string>{"UW3"});
}

TEST(GridParse, FullGridParsesAndCounts) {
  const Result<GridConfig> parsed = parse_grid(kFullGrid);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().cell_count(), 2u * 2 * 2 * 4 * 2 * 2);
  EXPECT_EQ(parsed.value().policies[1].kernel, core::Kernel::kDense);
  EXPECT_EQ(parsed.value().policies[3].k, 2);
}

TEST(GridParse, CanonicalRoundTripIsAFixedPoint) {
  const Result<GridConfig> parsed = parse_grid(kFullGrid);
  ASSERT_TRUE(parsed.is_ok());
  const std::string canon = canonical_grid(parsed.value());
  const Result<GridConfig> reparsed = parse_grid(canon);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string()
                                << "\n--- canonical ---\n" << canon;
  EXPECT_EQ(canonical_grid(reparsed.value()), canon);
  EXPECT_EQ(grid_fingerprint(reparsed.value()),
            grid_fingerprint(parsed.value()));
}

TEST(GridParse, CommentsAndWhitespaceAreInert) {
  const Result<GridConfig> a = parse_grid(kFullGrid);
  std::string spaced;
  for (const char* p = kFullGrid; *p != '\0'; ++p) {
    spaced += *p;
    if (*p == '\n') spaced += "   # interleaved comment\n\n";
  }
  const Result<GridConfig> b = parse_grid(spaced);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  EXPECT_EQ(canonical_grid(a.value()), canonical_grid(b.value()));
}

TEST(GridParse, RejectionCatalogue) {
  expect_rejected("bogus = 1\n", "unknown top-level key");
  expect_rejected("name = a\nname = b\n", "duplicate top-level key");
  expect_rejected("name =\n", "empty name");
  expect_rejected("name = spaced out\n", "name with spaces");
  expect_rejected("scale = 0\n", "scale below range");
  expect_rejected("scale = 1.5\n", "scale above range");
  expect_rejected("scale = abc\n", "non-numeric scale");
  expect_rejected("[bogus]\nvalues = 1\n", "unknown section");
  expect_rejected("[datasets\nvalues = UW3\n", "malformed section header");
  expect_rejected("[datasets]\nvalues = UW3\n[datasets]\nvalues = D2\n",
                  "duplicate section");
  expect_rejected("[datasets]\n", "section without values (truncated file)");
  expect_rejected("[datasets]\nvalues = UW3\n[faults]\n",
                  "trailing section without values");
  expect_rejected("[datasets]\nvalues =\n", "empty axis list");
  expect_rejected("[datasets]\nvalues = UW3,,D2\n", "empty axis item");
  expect_rejected("[datasets]\nvalues = NOPE\n", "unknown dataset");
  expect_rejected("[datasets]\nvalues = UW3, UW3\n", "duplicate cells");
  expect_rejected("[datasets]\nname = UW3\n", "non-values key in section");
  expect_rejected("values = UW3\n", "values outside any section");
  expect_rejected("[faults]\nvalues = -0.1\n", "fault below range");
  expect_rejected("[faults]\nvalues = 1.1\n", "fault above range");
  expect_rejected("[faults]\nvalues = 0.15, 0.15\n", "duplicate faults");
  expect_rejected("[metrics]\nvalues = bandwidth\n", "unsupported metric");
  expect_rejected("[policies]\nvalues = two-hop\n", "unknown policy");
  expect_rejected("[policies]\nvalues = disjoint:0\n", "disjoint k below 1");
  expect_rejected("[policies]\nvalues = disjoint:65\n", "disjoint k above 64");
  expect_rejected("[policies]\nvalues = disjoint:x\n", "non-numeric k");
  expect_rejected("[policies]\nvalues = one-hop/avx2\n", "unknown kernel");
  expect_rejected("[samples]\nvalues = -1\n", "negative min_samples");
  expect_rejected("[samples]\nvalues = 1000001\n", "absurd min_samples");
  expect_rejected("[seeds]\nvalues = -1\n", "negative seed");
  expect_rejected("[seeds]\nvalues = 99999999999999999999\n",
                  "seed overflow");
}

TEST(GridParse, AbsurdCrossProductIsRejectedUpFront) {
  // 9 faults x 8 datasets x 2 metrics x 4 policies x 2 samples x 5 seeds =
  // 11520 cells > kMaxGridCells.
  std::string text =
      "[datasets]\nvalues = D2, D2-NA, N2, N2-NA, UW1, UW3, UW4-A, UW4-B\n"
      "[metrics]\nvalues = rtt, loss\n"
      "[policies]\nvalues = one-hop, multi-hop, disjoint:2, disjoint:3\n"
      "[samples]\nvalues = 0, 5\n"
      "[seeds]\nvalues = 1, 2, 3, 4, 5\n"
      "[faults]\nvalues = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8\n";
  expect_rejected(text, "cross product beyond kMaxGridCells");
}

TEST(GridIdentity, FingerprintSeesEveryAxis) {
  const GridConfig base = parse_grid(kFullGrid).value();
  const std::uint64_t fp = grid_fingerprint(base);

  GridConfig g = base;
  g.name = "other";
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.scale = 0.5;
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.datasets.pop_back();
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.faults[1] = 0.2;
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.metrics.pop_back();
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.policies[3].k = 3;
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.samples[1] = 6;
  EXPECT_NE(grid_fingerprint(g), fp);
  g = base;
  g.seeds[1] = 8;
  EXPECT_NE(grid_fingerprint(g), fp);
}

TEST(GridIdentity, CellExpansionOrderAndFingerprintsAreStable) {
  const GridConfig g = parse_grid(kFullGrid).value();
  const std::vector<CellSpec> cells = expand_cells(g);
  ASSERT_EQ(cells.size(), g.cell_count());
  // Seeds are the innermost axis; datasets the outermost.
  EXPECT_EQ(cells[0].seed, 1999u);
  EXPECT_EQ(cells[1].seed, 7u);
  EXPECT_EQ(cells[0].dataset, "UW3");
  EXPECT_EQ(cells[cells.size() - 1].dataset, "D2");
  const std::uint64_t fp = grid_fingerprint(g);
  std::vector<std::uint64_t> seen;
  for (const CellSpec& cell : cells) {
    EXPECT_EQ(cell.index, seen.size());
    const std::uint64_t cfp = cell_fingerprint(fp, cell);
    for (const std::uint64_t prior : seen) EXPECT_NE(prior, cfp);
    seen.push_back(cfp);
  }
}

TEST(GridIdentity, EffectiveMinSamplesIsScaleDerivedAtZero) {
  GridConfig g;
  g.scale = 0.25;
  CellSpec cell;
  cell.min_samples = 0;
  EXPECT_EQ(effective_min_samples(g, cell), 8);  // round(30 * 0.25)
  cell.min_samples = 5;
  EXPECT_EQ(effective_min_samples(g, cell), 5);
  g.scale = 0.01;
  cell.min_samples = 0;
  EXPECT_EQ(effective_min_samples(g, cell), 3);  // floor of 3
}

}  // namespace
}  // namespace pathsel::matrix
