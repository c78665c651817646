#include "matrix/grid.h"

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

Result<PolicySpec> parse_policy(std::string_view s, std::size_t line) {
  PolicySpec p;
  if (s == "one-hop") return p;
  if (s == "one-hop/auto") return p;
  if (s == "one-hop/dense") {
    p.kernel = core::Kernel::kDense;
    return p;
  }
  if (s == "one-hop/search") {
    p.kernel = core::Kernel::kSearch;
    return p;
  }
  if (s == "multi-hop") {
    p.kind = PolicyKind::kMultiHop;
    return p;
  }
  if (s.rfind("disjoint:", 0) == 0) {
    p.kind = PolicyKind::kDisjoint;
    if (!parse_i32(s.substr(9), 1, 64, p.k)) {
      return bad(line, "disjoint policy needs k in [1, 64]: " + std::string{s});
    }
    return p;
  }
  return bad(line, "unknown policy: " + std::string{s} +
                       " (one-hop[/dense|/search], multi-hop, disjoint:K)");
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

const char* const kAxisNames[] = {"datasets", "faults",  "metrics",
                                  "policies", "samples", "seeds"};

}  // namespace

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
  // Which axes/keys appeared, for duplicate detection and for telling a
  // defaulted axis from an explicitly configured one.
  bool saw_name = false;
  bool saw_scale = false;
  std::vector<std::string> seen_sections;
  std::string section;       // current section, empty at top level
  bool section_has_values = false;
  std::size_t section_line = 0;

  auto close_section = [&]() -> Status {
    if (!section.empty() && !section_has_values) {
      return bad(section_line, "section [" + section +
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
      bool known = false;
      for (const char* axis : kAxisNames) known = known || name == axis;
      if (!known) return bad(line_no, "unknown section: [" + name + "]");
      if (const Status closed = close_section(); !closed.is_ok()) return closed;
      for (const std::string& prev : seen_sections) {
        if (prev == name) {
          return bad(line_no, "duplicate section: [" + name + "]");
        }
      }
      seen_sections.push_back(name);
      section = name;
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

    if (section.empty()) {
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

    if (key != "values") {
      return bad(line_no, "unknown key in [" + section + "]: " + key);
    }
    if (section_has_values) {
      return bad(line_no, "duplicate key in [" + section + "]: values");
    }
    section_has_values = true;

    const Result<std::vector<std::string>> items = split_values(value, line_no);
    if (!items.is_ok()) return items.status();

    if (section == "datasets") {
      grid.datasets.clear();
      for (const std::string& item : items.value()) {
        if (!meas::Catalog::is_dataset_name(item)) {
          return bad(line_no, "unknown dataset: " + item);
        }
        grid.datasets.push_back(item);
      }
    } else if (section == "faults") {
      grid.faults.clear();
      for (const std::string& item : items.value()) {
        double f = 0.0;
        if (!codec::parse_double(item, f) || !(f >= 0.0) || !(f <= 1.0)) {
          return bad(line_no, "fault intensity must be in [0, 1]: " + item);
        }
        grid.faults.push_back(f);
      }
    } else if (section == "metrics") {
      grid.metrics.clear();
      for (const std::string& item : items.value()) {
        if (item == "rtt") {
          grid.metrics.push_back(core::Metric::kRtt);
        } else if (item == "loss") {
          grid.metrics.push_back(core::Metric::kLoss);
        } else {
          return bad(line_no, "unknown metric: " + item + " (rtt, loss)");
        }
      }
    } else if (section == "policies") {
      grid.policies.clear();
      for (const std::string& item : items.value()) {
        Result<PolicySpec> p = parse_policy(item, line_no);
        if (!p.is_ok()) return p.status();
        grid.policies.push_back(p.value());
      }
    } else if (section == "samples") {
      grid.samples.clear();
      for (const std::string& item : items.value()) {
        int n = 0;
        if (!parse_i32(item, 0, 1'000'000, n)) {
          return bad(line_no,
                     "min-samples must be in [0, 1000000] (0: scale-derived): " +
                         item);
        }
        grid.samples.push_back(n);
      }
    } else {  // seeds
      grid.seeds.clear();
      for (const std::string& item : items.value()) {
        std::uint64_t s = 0;
        if (!codec::parse_u64(item, s)) {
          return bad(line_no, "seed must be an unsigned integer: " + item);
        }
        grid.seeds.push_back(s);
      }
    }
  }
  if (const Status closed = close_section(); !closed.is_ok()) return closed;

  // Duplicate axis values are duplicate cells: the same work run twice and
  // an ambiguous merge, so they are config errors, not a convenience.
  auto check_dups = [&](const char* axis,
                        const std::vector<std::string>& labels) -> Status {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      for (std::size_t j = i + 1; j < labels.size(); ++j) {
        if (labels[i] == labels[j]) {
          return Status::error(ErrorCode::kInvalidArgument,
                               std::string{"grid: duplicate "} + axis +
                                   " value (duplicate cells): " + labels[i]);
        }
      }
    }
    return Status::ok();
  };
  std::vector<std::string> labels;
  auto as_labels = [&labels](const auto& values, auto&& render) {
    labels.clear();
    for (const auto& v : values) labels.push_back(render(v));
    return labels;
  };
  for (const auto& [axis, axis_labels] :
       {std::pair{"datasets", as_labels(grid.datasets,
                                        [](const std::string& s) { return s; })},
        std::pair{"faults", as_labels(grid.faults, codec::to_text<double>)},
        std::pair{"metrics",
                  as_labels(grid.metrics,
                            [](core::Metric m) {
                              return std::string{core::metric_name(m)};
                            })},
        std::pair{"policies", as_labels(grid.policies,
                                        [](const PolicySpec& p) {
                                          return p.label();
                                        })},
        std::pair{"samples", as_labels(grid.samples,
                                       [](int n) { return std::to_string(n); })},
        std::pair{"seeds", as_labels(grid.seeds, [](std::uint64_t s) {
                    return std::to_string(s);
                  })}}) {
    if (const Status s = check_dups(axis, axis_labels); !s.is_ok()) return s;
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
  auto section = [&out](const char* axis, const std::vector<std::string>& vs) {
    out += std::string{"["} + axis + "]\nvalues = ";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) out += ", ";
      out += vs[i];
    }
    out += "\n";
  };
  std::vector<std::string> vs;
  vs.assign(grid.datasets.begin(), grid.datasets.end());
  section("datasets", vs);
  vs.clear();
  for (const double f : grid.faults) vs.push_back(codec::to_text(f));
  section("faults", vs);
  vs.clear();
  for (const core::Metric m : grid.metrics) {
    vs.emplace_back(core::metric_name(m));
  }
  section("metrics", vs);
  vs.clear();
  for (const PolicySpec& p : grid.policies) vs.push_back(p.label());
  section("policies", vs);
  vs.clear();
  for (const int n : grid.samples) vs.push_back(std::to_string(n));
  section("samples", vs);
  vs.clear();
  for (const std::uint64_t s : grid.seeds) vs.push_back(std::to_string(s));
  section("seeds", vs);
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
  std::vector<CellSpec> cells;
  cells.reserve(grid.cell_count());
  for (const std::string& dataset : grid.datasets) {
    for (const double fault : grid.faults) {
      for (const core::Metric metric : grid.metrics) {
        for (const PolicySpec& policy : grid.policies) {
          for (const int samples : grid.samples) {
            for (const std::uint64_t seed : grid.seeds) {
              CellSpec cell;
              cell.index = cells.size();
              cell.dataset = dataset;
              cell.fault = fault;
              cell.metric = metric;
              cell.policy = policy;
              cell.min_samples = samples;
              cell.seed = seed;
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
  return cells;
}

int effective_min_samples(const GridConfig& grid, const CellSpec& cell) {
  if (cell.min_samples > 0) return cell.min_samples;
  return core::scaled_min_samples(30, grid.scale);
}

std::string cell_label(const CellSpec& cell) {
  return cell.dataset + " fault=" + codec::to_text(cell.fault) + " " +
         core::metric_name(cell.metric) + " " + cell.policy.label() +
         " ms=" + std::to_string(cell.min_samples) +
         " seed=" + std::to_string(cell.seed);
}

}  // namespace pathsel::matrix
