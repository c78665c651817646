// Declarative scenario grids for the what-if matrix engine.
//
// A grid file is a small TOML-ish config: a handful of top-level scalars
// plus one section per axis, each holding a comma-separated value list.
// The cross product of the axes is the cell set the engine fans out over
// worker processes (matrix/engine.h).
//
//   # what-if grid
//   name = smoke
//   scale = 0.05
//   [datasets]
//   values = UW3, D2
//   [faults]
//   values = 0, 0.15
//   [metrics]
//   values = rtt, loss
//   [policies]
//   values = one-hop, disjoint:2
//   [samples]
//   values = 0
//   [seeds]
//   values = 1999
//
// Omitted sections default to a single-value axis (UW3 / 0 / rtt / one-hop
// / 0 / 1999), so the smallest valid grid is an empty file.  parse_grid is
// strict: unknown keys or sections, duplicate keys, sections or axis values
// (duplicate cells), empty lists, malformed values, a section left without a
// `values` line (a truncated file) and cross products beyond kMaxGridCells
// are all rejected with an explanatory kInvalidArgument before any I/O
// happens — the CLI maps these to usage errors (exit 2).
//
// Each axis is one row of kGridAxes: its section name, report heading,
// cell-label key, value parser and labels.  parse_grid, canonical_grid,
// expand_cells, cell_label and the report's marginals all walk that table,
// so adding an axis means one GridConfig field, one CellSpec field and one
// row.
//
// Cells expand in a fixed nested order (datasets outermost, seeds
// innermost), and every identity below — the canonical re-rendering, the
// grid fingerprint over it, and the per-cell fingerprints — is deterministic,
// which is what makes N-worker runs mergeable byte-for-byte and lets an
// edited grid invalidate stale worker state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/alternate.h"
#include "util/status.h"

namespace pathsel::matrix {

inline constexpr std::uint32_t kGridFormatVersion = 1;

/// Hard cap on the axis cross product: a fat-fingered grid (say, 100 seeds
/// x 100 faults x 8 datasets) is almost certainly a typo, and rejecting it
/// up front beats discovering it after a day of collection.
inline constexpr std::size_t kMaxGridCells = 4096;

enum class PolicyKind {
  kOneHop,    // one-hop-bounded alternate sweep (the paper's main analysis)
  kMultiHop,  // unbounded alternate sweep
  kDisjoint,  // k mutually disjoint alternates (core/disjoint.h)
};

/// One value of the policy axis: `one-hop`, `one-hop/dense`, `one-hop/search`,
/// `multi-hop`, or `disjoint:K`.  The kernel knob only applies to one-hop
/// sweeps (the dense kernel is one-hop-only by construction).
struct PolicySpec {
  PolicyKind kind = PolicyKind::kOneHop;
  core::Kernel kernel = core::Kernel::kAuto;
  int k = 0;  // disjoint only

  [[nodiscard]] std::string label() const;
  [[nodiscard]] bool operator==(const PolicySpec&) const = default;
};

struct GridConfig {
  std::string name = "matrix";
  /// Trace-duration scale applied to every cell's collection, (0, 1].
  double scale = 1.0;
  std::vector<std::string> datasets{"UW3"};
  std::vector<double> faults{0.0};
  std::vector<core::Metric> metrics{core::Metric::kRtt};
  std::vector<PolicySpec> policies{PolicySpec{}};
  /// min_samples values; 0 means scale-derived: max(3, round(30 * scale)),
  /// the same convention the campaign disjoint reports and benches use.
  std::vector<int> samples{0};
  std::vector<std::uint64_t> seeds{1999};

  /// The product of the axis sizes.
  [[nodiscard]] std::size_t cell_count() const noexcept;
};

/// One cell of the expanded grid: a concrete (dataset, fault, metric,
/// policy, min_samples, seed) combination plus its position in the fixed
/// expansion order.
struct CellSpec {
  std::size_t index = 0;
  std::string dataset;
  double fault = 0.0;
  core::Metric metric = core::Metric::kRtt;
  PolicySpec policy;
  int min_samples = 0;  // 0: scale-derived
  std::uint64_t seed = 1999;
};

/// One axis of the grid, in one row: how a grid file names it, how the
/// report and cell labels spell it, and how its values move from the file
/// into GridConfig and from there into each CellSpec.
struct GridAxis {
  const char* section;    // `[section]` name; also names it in errors
  const char* heading;    // the report's marginal heading
  const char* label_key;  // prefix of its value in cell_label ("fault=")
  std::size_t (*size)(const GridConfig&);
  /// Replaces the axis's values with `items`; returns the rejection text of
  /// the first malformed item, or an empty string.
  std::string (*parse)(GridConfig&, const std::vector<std::string>& items);
  /// Sets the cell's field for this axis to the axis's value `i`.
  void (*assign)(const GridConfig&, std::size_t i, CellSpec&);
  /// The cell's value as canonical_grid, cell_label and the duplicate-value
  /// check spell it (faults as %.17g).
  std::string (*label)(const CellSpec&);
  /// The cell's value as the report spells it (faults in shortest_text).
  std::string (*report_label)(const CellSpec&);

  /// The axis's value `i` in an otherwise default cell, to spell it with
  /// label or report_label.
  [[nodiscard]] CellSpec value(const GridConfig& grid, std::size_t i) const {
    CellSpec cell;
    assign(grid, i, cell);
    return cell;
  }
};

/// The axes in expansion order: datasets (outermost), faults, metrics,
/// policies, samples, seeds (innermost).
extern const std::array<GridAxis, 6> kGridAxes;

/// The shortest "%.*g" spelling that round-trips to exactly `v`: distinct
/// values stay distinct, round ones print as written ("0.15").
[[nodiscard]] std::string shortest_text(double v);

/// Strict parse of a grid file (see the header comment for the grammar and
/// the rejection catalogue).  Touches no files and performs no I/O.
[[nodiscard]] Result<GridConfig> parse_grid(std::string_view text);

/// Deterministic re-rendering of a config: parse_grid(canonical_grid(g))
/// reproduces g exactly, and equal configs render to equal bytes — the
/// identity the grid fingerprint hashes.
[[nodiscard]] std::string canonical_grid(const GridConfig& grid);

/// Identity of the whole grid: a fingerprint over the canonical rendering
/// (format version folded in).  Any edit to the grid changes it, which
/// invalidates every per-cell summary and worker checkpoint.
[[nodiscard]] std::uint64_t grid_fingerprint(const GridConfig& grid);

/// Identity of one cell: the grid fingerprint folded with the cell's index
/// and a hash of its human-readable label, so neither reordering axes nor
/// editing a single value can alias two cells.
[[nodiscard]] std::uint64_t cell_fingerprint(std::uint64_t grid_fp,
                                             const CellSpec& cell);

/// The full cell list in expansion order: datasets, then faults, metrics,
/// policies, samples, seeds (innermost).
[[nodiscard]] std::vector<CellSpec> expand_cells(const GridConfig& grid);

/// The cell's effective min_samples floor: its own value, or the
/// scale-derived default core::scaled_min_samples(30, scale) when it is 0.
[[nodiscard]] int effective_min_samples(const GridConfig& grid,
                                        const CellSpec& cell);

/// Compact human-readable cell identity, e.g.
/// "UW3 fault=0.15 loss disjoint:2 ms=0 seed=1999".
[[nodiscard]] std::string cell_label(const CellSpec& cell);

}  // namespace pathsel::matrix
