#include "util/bench_report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace pathsel {

void json_append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void append_indent(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent), ' ');
}

double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

// Appends {"name": value, ...} maps; Fn appends one value.
template <typename Entries, typename Fn>
void append_object(std::string& out, const Entries& entries, int indent,
                   Fn&& append_value) {
  if (entries.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out += ",\n";
    first = false;
    append_indent(out, indent + 2);
    json_append_escaped(out, name);
    out += ": ";
    append_value(out, value);
  }
  out += "\n";
  append_indent(out, indent);
  out += "}";
}

}  // namespace

std::string metrics_to_json(const MetricsSnapshot& snapshot, int indent) {
  std::string out;
  out += "{\n";
  append_indent(out, indent + 2);
  out += "\"counters\": ";
  append_object(out, snapshot.counters, indent + 2,
                [](std::string& o, std::uint64_t v) { append_u64(o, v); });
  out += ",\n";

  append_indent(out, indent + 2);
  out += "\"gauges\": ";
  append_object(out, snapshot.gauges, indent + 2,
                [](std::string& o, double v) { json_append_double(o, v); });
  out += ",\n";

  append_indent(out, indent + 2);
  out += "\"phases\": ";
  append_object(out, snapshot.phases, indent + 2,
                [](std::string& o, const PhaseStat& p) {
                  o += "{\"calls\": ";
                  append_u64(o, p.calls);
                  o += ", \"wall_ms\": ";
                  json_append_double(o, ns_to_ms(p.wall_ns));
                  o += ", \"cpu_ms\": ";
                  json_append_double(o, ns_to_ms(p.cpu_ns));
                  o += ", \"self_wall_ms\": ";
                  json_append_double(o, ns_to_ms(p.self_wall_ns()));
                  o += "}";
                });
  out += ",\n";

  append_indent(out, indent + 2);
  out += "\"histograms\": ";
  append_object(out, snapshot.histograms, indent + 2,
                [](std::string& o, const HistogramStat& h) {
                  o += "{\"le\": [";
                  for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
                    if (i > 0) o += ", ";
                    json_append_double(o, h.upper_bounds[i]);
                  }
                  // Timing-valued observation counts: name the field with a
                  // _ns suffix so golden normalization zeroes it alongside
                  // the other run-to-run-varying fields.
                  o += "], \"counts_ns\": [";
                  for (std::size_t i = 0; i < h.counts.size(); ++i) {
                    if (i > 0) o += ", ";
                    append_u64(o, h.counts[i]);
                  }
                  o += "], \"total\": ";
                  append_u64(o, h.total);
                  o += "}";
                });
  out += "\n";
  append_indent(out, indent);
  out += "}";
  return out;
}

void BenchReport::add_table(const Table& table) {
  std::string r = "{\"type\": \"table\", \"title\": ";
  json_append_escaped(r, table.title());
  r += ", \"header\": [";
  for (std::size_t i = 0; i < table.header().size(); ++i) {
    if (i > 0) r += ", ";
    json_append_escaped(r, table.header()[i]);
  }
  r += "], \"rows\": [";
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    if (i > 0) r += ", ";
    r += "[";
    const auto& row = table.rows()[i];
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j > 0) r += ", ";
      json_append_escaped(r, row[j]);
    }
    r += "]";
  }
  r += "]}";
  results_.push_back(std::move(r));
}

void BenchReport::add_series(std::string_view title,
                             std::span<const Series> series) {
  std::string r = "{\"type\": \"series\", \"title\": ";
  json_append_escaped(r, title);
  r += ", \"series\": [";
  for (std::size_t s = 0; s < series.size(); ++s) {
    if (s > 0) r += ", ";
    r += "{\"name\": ";
    json_append_escaped(r, series[s].name);
    r += ", \"x\": [";
    for (std::size_t i = 0; i < series[s].x.size(); ++i) {
      if (i > 0) r += ", ";
      json_append_double(r, series[s].x[i]);
    }
    r += "], \"y\": [";
    for (std::size_t i = 0; i < series[s].y.size(); ++i) {
      if (i > 0) r += ", ";
      json_append_double(r, series[s].y[i]);
    }
    r += "]}";
  }
  r += "]}";
  results_.push_back(std::move(r));
}

void BenchReport::add_note(std::string_view text) {
  std::string r = "{\"type\": \"note\", \"text\": ";
  json_append_escaped(r, text);
  r += "}";
  results_.push_back(std::move(r));
}

void BenchReport::write(std::ostream& os, const MetricsSnapshot& metrics) const {
  std::string out;
  out += "{\n  \"schema_version\": " + std::to_string(kBenchSchemaVersion) +
         ",\n  \"bench\": ";
  json_append_escaped(out, bench_name_);
  out += ",\n  \"scale\": ";
  json_append_double(out, scale_);
  out += ",\n  \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += results_[i];
  }
  out += results_.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  out += metrics_to_json(metrics, 2);
  out += "\n}\n";
  os << out;
}

bool BenchReport::write_file(const std::string& path,
                             const MetricsSnapshot& metrics) const {
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  write(os, metrics);
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr, "short write to %s: report is incomplete\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace pathsel
