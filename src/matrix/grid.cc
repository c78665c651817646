#include "matrix/grid.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/catalog.h"
#include "meas/checkpoint.h"
#include "util/atomic_io.h"
#include "util/codec.h"

namespace pathsel::matrix {

namespace {

Status bad(std::size_t line, const std::string& message) {
  return Status::error(ErrorCode::kInvalidArgument,
                       "grid line " + std::to_string(line) + ": " + message);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool parse_i32(std::string_view s, std::int64_t lo, std::int64_t hi,
               int& out) {
  std::int64_t v = 0;
  if (!codec::parse_i64(s, v) || v < lo || v > hi) return false;
  out = static_cast<int>(v);
  return true;
}

// The value parsers of the axis table: each fills `out` from one list item
// and returns the rejection text, or an empty string.
std::string parse_dataset(const std::string& item, std::string& out) {
  out = item;
  return meas::Catalog::is_dataset_name(item) ? ""
                                              : "unknown dataset: " + item;
}

std::string parse_fault(const std::string& item, double& out) {
  const bool ok = codec::parse_double(item, out) && out >= 0.0 && out <= 1.0;
  return ok ? "" : "fault intensity must be in [0, 1]: " + item;
}

std::string parse_metric(const std::string& item, core::Metric& out) {
  for (const core::Metric m : {core::Metric::kRtt, core::Metric::kLoss}) {
    out = m;
    if (item == core::metric_name(m)) return {};
  }
  return "unknown metric: " + item + " (rtt, loss)";
}

std::string parse_policy(const std::string& item, PolicySpec& out) {
  if (item == "one-hop/dense") {
    out.kernel = core::Kernel::kDense;
  } else if (item == "one-hop/search") {
    out.kernel = core::Kernel::kSearch;
  } else if (item == "multi-hop") {
    out.kind = PolicyKind::kMultiHop;
  } else if (item.rfind("disjoint:", 0) == 0) {
    out.kind = PolicyKind::kDisjoint;
    if (!parse_i32(std::string_view{item}.substr(9), 1, 64, out.k)) {
      return "disjoint policy needs k in [1, 64]: " + item;
    }
  } else if (item != "one-hop" && item != "one-hop/auto") {
    return "unknown policy: " + item +
           " (one-hop[/dense|/search], multi-hop, disjoint:K)";
  }
  return {};
}

std::string parse_samples(const std::string& item, int& out) {
  return parse_i32(item, 0, 1'000'000, out)
             ? ""
             : "min-samples must be in [0, 1000000] (0: scale-derived): " +
                   item;
}

std::string parse_seed(const std::string& item, std::uint64_t& out) {
  return codec::parse_u64(item, out)
             ? ""
             : "seed must be an unsigned integer: " + item;
}

// One kGridAxes row over GridConfig::*Values and CellSpec::*Field.
template <auto Values, auto Field, auto Parse, auto Label,
          auto ReportLabel = Label>
constexpr GridAxis axis(const char* section, const char* heading,
                        const char* label_key) {
  return {section,
          heading,
          label_key,
          [](const GridConfig& g) { return (g.*Values).size(); },
          [](GridConfig& g, const std::vector<std::string>& items) {
            auto& values = g.*Values;
            values.clear();
            for (const std::string& item : items) {
              std::string error = Parse(item, values.emplace_back());
              if (!error.empty()) return error;
            }
            return std::string{};
          },
          [](const GridConfig& g, std::size_t i, CellSpec& cell) {
            cell.*Field = (g.*Values)[i];
          },
          [](const CellSpec& cell) {
            return std::string{std::invoke(Label, cell.*Field)};
          },
          [](const CellSpec& cell) {
            return std::string{std::invoke(ReportLabel, cell.*Field)};
          }};
}

// Splits a `values = a, b, c` list, rejecting empty lists and empty items
// (a trailing comma is a typo worth naming, not quietly dropping).
Result<std::vector<std::string>> split_values(std::string_view s,
                                              std::size_t line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  const std::string text{s};
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string_view item = trim(
        std::string_view{text}.substr(start, comma == std::string::npos
                                                 ? std::string::npos
                                                 : comma - start));
    if (item.empty()) return bad(line, "empty value in list");
    out.emplace_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

constinit const std::array<GridAxis, 6> kGridAxes{
    axis<&GridConfig::datasets, &CellSpec::dataset, parse_dataset,
         codec::to_text<std::string>>("datasets", "dataset", ""),
    axis<&GridConfig::faults, &CellSpec::fault, parse_fault,
         codec::to_text<double>, shortest_text>("faults", "fault", "fault="),
    axis<&GridConfig::metrics, &CellSpec::metric, parse_metric,
         core::metric_name>("metrics", "metric", ""),
    axis<&GridConfig::policies, &CellSpec::policy, parse_policy,
         &PolicySpec::label>("policies", "policy", ""),
    axis<&GridConfig::samples, &CellSpec::min_samples, parse_samples,
         codec::to_text<int>>("samples", "min_samples", "ms="),
    axis<&GridConfig::seeds, &CellSpec::seed, parse_seed,
         codec::to_text<std::uint64_t>>("seeds", "seed", "seed="),
};

std::size_t GridConfig::cell_count() const noexcept {
  std::size_t n = 1;
  for (const GridAxis& axis : kGridAxes) n *= axis.size(*this);
  return n;
}

std::string shortest_text(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;
}

std::string PolicySpec::label() const {
  switch (kind) {
    case PolicyKind::kOneHop:
      if (kernel == core::Kernel::kDense) return "one-hop/dense";
      if (kernel == core::Kernel::kSearch) return "one-hop/search";
      return "one-hop";
    case PolicyKind::kMultiHop:
      return "multi-hop";
    case PolicyKind::kDisjoint:
      return "disjoint:" + std::to_string(k);
  }
  return "?";
}

Result<GridConfig> parse_grid(std::string_view text) {
  GridConfig grid;
  // Which keys and sections appeared, for duplicate detection.
  bool saw_name = false;
  bool saw_scale = false;
  std::array<bool, kGridAxes.size()> seen{};
  const GridAxis* section = nullptr;  // current section, null at top level
  bool section_has_values = false;
  std::size_t section_line = 0;

  auto close_section = [&]() -> Status {
    if (section != nullptr && !section_has_values) {
      return bad(section_line, std::string{"section ["} + section->section +
                                   "] has no `values` line (truncated grid?)");
    }
    return Status::ok();
  };

  codec::Lines lines{text};
  std::string_view raw;
  std::size_t line_no = 0;
  while (lines.next(raw)) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    const std::string_view line = trim(raw);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        return bad(line_no, "malformed section header: " + std::string{line});
      }
      const std::string name{trim(line.substr(1, line.size() - 2))};
      std::size_t a = 0;
      while (a < kGridAxes.size() && name != kGridAxes[a].section) ++a;
      if (a == kGridAxes.size()) {
        return bad(line_no, "unknown section: [" + name + "]");
      }
      if (const Status closed = close_section(); !closed.is_ok()) return closed;
      if (seen[a]) return bad(line_no, "duplicate section: [" + name + "]");
      seen[a] = true;
      section = &kGridAxes[a];
      section_has_values = false;
      section_line = line_no;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return bad(line_no, "expected `key = value`: " + std::string{line});
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));

    if (section == nullptr) {
      if (key == "name") {
        if (saw_name) return bad(line_no, "duplicate key: name");
        saw_name = true;
        if (!valid_name(value)) {
          return bad(line_no, "invalid grid name: " + std::string{value});
        }
        grid.name = std::string{value};
      } else if (key == "scale") {
        if (saw_scale) return bad(line_no, "duplicate key: scale");
        saw_scale = true;
        double s = 0.0;
        if (!codec::parse_double(value, s) || !(s > 0.0) || !(s <= 1.0)) {
          return bad(line_no, "scale must be in (0, 1]: " + std::string{value});
        }
        grid.scale = s;
      } else {
        return bad(line_no, "unknown key: " + key);
      }
      continue;
    }

    const std::string where = std::string{" in ["} + section->section + "]: ";
    if (key != "values") return bad(line_no, "unknown key" + where + key);
    if (section_has_values) {
      return bad(line_no, "duplicate key" + where + "values");
    }
    section_has_values = true;

    const Result<std::vector<std::string>> items = split_values(value, line_no);
    if (!items.is_ok()) return items.status();
    if (const std::string error = section->parse(grid, items.value());
        !error.empty()) {
      return bad(line_no, error);
    }
  }
  if (const Status closed = close_section(); !closed.is_ok()) return closed;

  // Duplicate axis values are duplicate cells: the same work run twice and
  // an ambiguous merge, so they are config errors, not a convenience.
  for (const GridAxis& axis : kGridAxes) {
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < axis.size(grid); ++i) {
      labels.push_back(axis.label(axis.value(grid, i)));
      for (std::size_t j = 0; j < i; ++j) {
        if (labels[j] == labels[i]) {
          return Status::error(ErrorCode::kInvalidArgument,
                               std::string{"grid: duplicate "} + axis.section +
                                   " value (duplicate cells): " + labels[i]);
        }
      }
    }
  }

  if (grid.cell_count() > kMaxGridCells) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "grid expands to " + std::to_string(grid.cell_count()) +
            " cells, over the " + std::to_string(kMaxGridCells) + " cap");
  }
  return grid;
}

std::string canonical_grid(const GridConfig& grid) {
  std::string out = "# pathsel-grid v" + std::to_string(kGridFormatVersion) +
                    " (canonical)\n";
  out += "name = " + grid.name + "\n";
  out += "scale = " + codec::to_text(grid.scale) + "\n";
  for (const GridAxis& axis : kGridAxes) {
    out += std::string{"["} + axis.section + "]\nvalues = ";
    for (std::size_t i = 0; i < axis.size(grid); ++i) {
      if (i != 0) out += ", ";
      out += axis.label(axis.value(grid, i));
    }
    out += "\n";
  }
  return out;
}

std::uint64_t grid_fingerprint(const GridConfig& grid) {
  return meas::fold_fingerprint(kGridFormatVersion,
                                crc32(canonical_grid(grid)));
}

std::uint64_t cell_fingerprint(std::uint64_t grid_fp, const CellSpec& cell) {
  return meas::fold_fingerprint(
      meas::fold_fingerprint(grid_fp, cell.index), crc32(cell_label(cell)));
}

std::vector<CellSpec> expand_cells(const GridConfig& grid) {
  std::vector<CellSpec> cells(grid.cell_count());
  for (std::size_t index = 0; index < cells.size(); ++index) {
    CellSpec& cell = cells[index];
    cell.index = index;
    // The index in mixed radix, innermost axis (the last row) first.
    std::size_t rest = index;
    for (auto axis = kGridAxes.rbegin(); axis != kGridAxes.rend(); ++axis) {
      const std::size_t n = axis->size(grid);
      axis->assign(grid, rest % n, cell);
      rest /= n;
    }
  }
  return cells;
}

int effective_min_samples(const GridConfig& grid, const CellSpec& cell) {
  if (cell.min_samples > 0) return cell.min_samples;
  return core::scaled_min_samples(30, grid.scale);
}

std::string cell_label(const CellSpec& cell) {
  std::string out;
  for (const GridAxis& axis : kGridAxes) {
    if (&axis != kGridAxes.data()) out += ' ';
    out += axis.label_key;
    out += axis.label(cell);
  }
  return out;
}

}  // namespace pathsel::matrix
