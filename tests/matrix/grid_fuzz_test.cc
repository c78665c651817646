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

void expect_rejected(const std::string& text, const char* why,
                     const std::string& message) {
  const Result<GridConfig> parsed = parse_grid(text);
  ASSERT_FALSE(parsed.is_ok()) << why << "\n--- input ---\n" << text;
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << why;
  EXPECT_EQ(parsed.status().message(), message) << why;
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
  expect_rejected("bogus = 1\n", "unknown top-level key",
                  "grid line 1: unknown key: bogus");
  expect_rejected("name = a\nname = b\n", "duplicate top-level key",
                  "grid line 2: duplicate key: name");
  expect_rejected("name =\n", "empty name",
                  "grid line 1: invalid grid name: ");
  expect_rejected("name = spaced out\n", "name with spaces",
                  "grid line 1: invalid grid name: spaced out");
  expect_rejected("scale = 0\n", "scale below range",
                  "grid line 1: scale must be in (0, 1]: 0");
  expect_rejected("scale = 1.5\n", "scale above range",
                  "grid line 1: scale must be in (0, 1]: 1.5");
  expect_rejected("scale = abc\n", "non-numeric scale",
                  "grid line 1: scale must be in (0, 1]: abc");
  expect_rejected("[bogus]\nvalues = 1\n", "unknown section",
                  "grid line 1: unknown section: [bogus]");
  expect_rejected("[datasets\nvalues = UW3\n", "malformed section header",
                  "grid line 1: malformed section header: [datasets");
  expect_rejected("[datasets]\nvalues = UW3\n[datasets]\nvalues = D2\n",
                  "duplicate section",
                  "grid line 3: duplicate section: [datasets]");
  expect_rejected("[datasets]\n", "section without values (truncated file)",
                  "grid line 1: section [datasets] has no `values` line "
                  "(truncated grid?)");
  expect_rejected("[datasets]\nvalues = UW3\n[faults]\n",
                  "trailing section without values",
                  "grid line 3: section [faults] has no `values` line "
                  "(truncated grid?)");
  expect_rejected("[datasets]\nvalues =\n", "empty axis list",
                  "grid line 2: empty value in list");
  expect_rejected("[datasets]\nvalues = UW3,,D2\n", "empty axis item",
                  "grid line 2: empty value in list");
  expect_rejected("[datasets]\nvalues = NOPE\n", "unknown dataset",
                  "grid line 2: unknown dataset: NOPE");
  expect_rejected("[datasets]\nvalues = UW3, UW3\n", "duplicate cells",
                  "grid: duplicate datasets value (duplicate cells): UW3");
  expect_rejected("[datasets]\nname = UW3\n", "non-values key in section",
                  "grid line 2: unknown key in [datasets]: name");
  expect_rejected("values = UW3\n", "values outside any section",
                  "grid line 1: unknown key: values");
  expect_rejected("[faults]\nvalues = -0.1\n", "fault below range",
                  "grid line 2: fault intensity must be in [0, 1]: -0.1");
  expect_rejected("[faults]\nvalues = 1.1\n", "fault above range",
                  "grid line 2: fault intensity must be in [0, 1]: 1.1");
  expect_rejected("[faults]\nvalues = 0.15, 0.15\n", "duplicate faults",
                  "grid: duplicate faults value (duplicate cells): "
                  "0.14999999999999999");
  expect_rejected("[metrics]\nvalues = bandwidth\n", "unsupported metric",
                  "grid line 2: unknown metric: bandwidth (rtt, loss)");
  expect_rejected("[policies]\nvalues = two-hop\n", "unknown policy",
                  "grid line 2: unknown policy: two-hop "
                  "(one-hop[/dense|/search], multi-hop, disjoint:K)");
  expect_rejected("[policies]\nvalues = disjoint:0\n", "disjoint k below 1",
                  "grid line 2: disjoint policy needs k in [1, 64]: "
                  "disjoint:0");
  expect_rejected("[policies]\nvalues = disjoint:65\n", "disjoint k above 64",
                  "grid line 2: disjoint policy needs k in [1, 64]: "
                  "disjoint:65");
  expect_rejected("[policies]\nvalues = disjoint:x\n", "non-numeric k",
                  "grid line 2: disjoint policy needs k in [1, 64]: "
                  "disjoint:x");
  expect_rejected("[policies]\nvalues = one-hop/avx2\n", "unknown kernel",
                  "grid line 2: unknown policy: one-hop/avx2 "
                  "(one-hop[/dense|/search], multi-hop, disjoint:K)");
  expect_rejected("[samples]\nvalues = -1\n", "negative min_samples",
                  "grid line 2: min-samples must be in [0, 1000000] (0: "
                  "scale-derived): -1");
  expect_rejected("[samples]\nvalues = 1000001\n", "absurd min_samples",
                  "grid line 2: min-samples must be in [0, 1000000] (0: "
                  "scale-derived): 1000001");
  expect_rejected("[seeds]\nvalues = -1\n", "negative seed",
                  "grid line 2: seed must be an unsigned integer: -1");
  expect_rejected("[seeds]\nvalues = 99999999999999999999\n",
                  "seed overflow",
                  "grid line 2: seed must be an unsigned integer: "
                  "99999999999999999999");
}

TEST(GridParse, AbsurdCrossProductIsRejectedUpFront) {
  // 9 faults x 8 datasets x 2 metrics x 4 policies x 2 samples x 5 seeds =
  // 5760 cells > kMaxGridCells.
  std::string text =
      "[datasets]\nvalues = D2, D2-NA, N2, N2-NA, UW1, UW3, UW4-A, UW4-B\n"
      "[metrics]\nvalues = rtt, loss\n"
      "[policies]\nvalues = one-hop, multi-hop, disjoint:2, disjoint:3\n"
      "[samples]\nvalues = 0, 5\n"
      "[seeds]\nvalues = 1, 2, 3, 4, 5\n"
      "[faults]\nvalues = 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8\n";
  expect_rejected(text, "cross product beyond kMaxGridCells",
                  "grid expands to 5760 cells, over the 4096 cap");
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

// The identity bytes themselves, as literals: the round-trip and uniqueness
// tests above would still pass if a refactor changed a rendering the same
// way everywhere, which would orphan every existing work dir.  Cell 1 is the
// seed step, cell 127 the last cell (every axis at its last value).
TEST(GridIdentity, FullGridIdentityBytesArePinned) {
  const GridConfig g = parse_grid(kFullGrid).value();
  EXPECT_EQ(canonical_grid(g),
            "# pathsel-grid v1 (canonical)\n"
            "name = full\n"
            "scale = 0.25\n"
            "[datasets]\n"
            "values = UW3, D2\n"
            "[faults]\n"
            "values = 0, 0.14999999999999999\n"
            "[metrics]\n"
            "values = rtt, loss\n"
            "[policies]\n"
            "values = one-hop, one-hop/dense, multi-hop, disjoint:2\n"
            "[samples]\n"
            "values = 0, 5\n"
            "[seeds]\n"
            "values = 1999, 7\n");
  const std::uint64_t fp = grid_fingerprint(g);
  EXPECT_EQ(fp, 0x05c043e48aab516cULL);
  const std::vector<CellSpec> cells = expand_cells(g);
  ASSERT_EQ(cells.size(), 128u);
  EXPECT_EQ(cell_label(cells[0]), "UW3 fault=0 rtt one-hop ms=0 seed=1999");
  EXPECT_EQ(cell_label(cells[1]), "UW3 fault=0 rtt one-hop ms=0 seed=7");
  EXPECT_EQ(cell_label(cells[127]),
            "D2 fault=0.14999999999999999 loss disjoint:2 ms=5 seed=7");
  EXPECT_EQ(cell_fingerprint(fp, cells[0]), 0x6a1d87a0c6ced212ULL);
  EXPECT_EQ(cell_fingerprint(fp, cells[1]), 0xb936efd71be33c57ULL);
  EXPECT_EQ(cell_fingerprint(fp, cells[127]), 0x4f134ab6216dee9bULL);
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
