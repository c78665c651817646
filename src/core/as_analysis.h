// AS popularity in default vs. alternate paths (§7.1, Figure 14).
//
// For every AS seen in any trace, count the measured default paths whose
// AS-level route contains it and the best alternate paths that contain it
// (an alternate path's AS set is the union of its constituent default
// paths' AS sets).  A balanced scatter means no small set of ASes is
// responsible for the superior alternates.
#pragma once

#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"

namespace pathsel::core {

struct AsAppearance {
  topo::AsId as{};
  std::size_t default_count = 0;    // default paths containing this AS
  std::size_t alternate_count = 0;  // best alternate paths containing it
};

/// `results` must come from analyze_alternate_paths over the same table.
[[nodiscard]] std::vector<AsAppearance> as_appearances(
    const PathTable& table, const ResultColumns& results);

}  // namespace pathsel::core
