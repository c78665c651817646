// Machine-readable bench output.
//
// Every bench binary prints human-formatted tables and CSV series; this
// layer additionally serializes the same results — plus a MetricsRegistry
// snapshot — as JSON with a stable schema, so the perf trajectory of the
// repo can be tracked by tooling instead of eyeballs:
//
//   {
//     "schema_version": 1,
//     "bench": "<binary name>",
//     "scale": <PATHSEL_BENCH_SCALE>,
//     "results": [
//       {"type": "table", "title": ..., "header": [...], "rows": [[...]]},
//       {"type": "series", "title": ...,
//        "series": [{"name": ..., "x": [...], "y": [...]}]},
//       {"type": "note", "text": ...}
//     ],
//     "metrics": {"counters": {...}, "gauges": {...},
//                 "phases": {...}, "histograms": {...}}
//   }
//
// Key order is fixed and "metrics" is always the last top-level key: every
// value above it is deterministic for a fixed (seed, scale, thread count),
// which lets golden-file tests pin the result prefix while timing-bearing
// metrics (whose field names all end in "_ms"/"_ns") vary run to run.
// Doubles are serialized with shortest-round-trip formatting (to_chars), so
// equal values always produce equal bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"
#include "util/table.h"

namespace pathsel {

/// The "schema_version" every bench JSON report carries.
inline constexpr int kBenchSchemaVersion = 1;

/// Appends the JSON string literal (quotes and escapes included) for `s`.
void json_append_escaped(std::string& out, std::string_view s);

/// Appends a shortest-round-trip decimal form of `v` ("null" for
/// non-finite values, which JSON cannot represent).
void json_append_double(std::string& out, double v);

/// Serializes a MetricsSnapshot as the schema's "metrics" object value.
[[nodiscard]] std::string metrics_to_json(const MetricsSnapshot& snapshot,
                                          int indent = 0);

/// Collects tables, series and notes in emission order and writes the JSON
/// document above.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_name_{std::move(bench_name)} {}

  void set_scale(double scale) noexcept { scale_ = scale; }

  void add_table(const Table& table);
  void add_series(std::string_view title, std::span<const Series> series);
  void add_note(std::string_view text);

  [[nodiscard]] std::size_t result_count() const noexcept {
    return results_.size();
  }

  /// Writes the full document; `metrics` may be empty (emitted as {}).
  void write(std::ostream& os, const MetricsSnapshot& metrics) const;

  /// write() to a file; returns false (and prints to stderr) on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path,
                                const MetricsSnapshot& metrics) const;

 private:
  std::string bench_name_;
  double scale_ = 1.0;
  std::vector<std::string> results_;  // pre-rendered JSON objects
};

}  // namespace pathsel
