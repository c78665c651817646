// Shared plumbing for the figure/table benches.
//
// Every bench regenerates one table or figure of the paper from a freshly
// collected (simulated) dataset and prints: a header naming the experiment
// and the paper's expectation, the plotted series as CSV (decimated to keep
// output reviewable), and a one-line measured summary.  EXPERIMENTS.md
// records paper-vs-measured for each bench.
//
// PATHSEL_BENCH_SCALE (0 < s <= 1) shrinks trace durations for quick runs;
// the default 1.0 regenerates full-size datasets.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>

#include "core/path_table.h"
#include "meas/catalog.h"
#include "stats/cdf.h"
#include "util/bench_report.h"
#include "util/metrics.h"
#include "util/table.h"

namespace pathsel::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("PATHSEL_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
  }
  return 1.0;
}

/// The paper's 30-measurement threshold at the bench scale
/// (core::scaled_min_samples).
inline int scaled_min_samples(int full_scale_threshold = 30) {
  return core::scaled_min_samples(full_scale_threshold, bench_scale());
}

inline meas::Catalog make_catalog() {
  meas::CatalogConfig cfg;
  cfg.seed = 1999;
  cfg.scale = bench_scale();
  return meas::Catalog{cfg};
}

inline void print_experiment_header(const char* id, const char* description,
                                    const char* paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, description);
  std::printf("paper: %s\n", paper_expectation);
  std::printf("scale: %.2f\n", bench_scale());
  std::printf("==============================================================\n");
}

/// Thins a series to at most `max_points` evenly spaced points.
inline Series decimate(const Series& s, std::size_t max_points = 48) {
  if (s.x.size() <= max_points) return s;
  Series out;
  out.name = s.name;
  const double step =
      static_cast<double>(s.x.size() - 1) / static_cast<double>(max_points - 1);
  for (std::size_t i = 0; i < max_points; ++i) {
    const auto idx = static_cast<std::size_t>(static_cast<double>(i) * step);
    out.x.push_back(s.x[idx]);
    out.y.push_back(s.y[idx]);
  }
  return out;
}

inline Series cdf_series(const stats::EmpiricalCdf& cdf, std::string name,
                         double trim_lo = 0.02, double trim_hi = 0.98) {
  return decimate(cdf.to_series(std::move(name), trim_lo, trim_hi));
}

// --json plumbing.  Each bench binary is one translation unit, so one
// function-local BenchReport per process is enough.  emit()/emit_series()
// print exactly what the pre-JSON benches printed AND record the same result
// into the report; finish() writes the report only when --json was given.

struct JsonState {
  BenchReport report{""};
  std::string path;  // empty: no JSON requested
};

inline JsonState& json_state() {
  static JsonState s;
  return s;
}

/// Parses bench argv (`--json <path>` or `--json=<path>`); prints usage to
/// stderr and returns false on anything unrecognized.  The path is
/// probe-opened immediately so an unwritable destination fails the bench up
/// front with a clear message — not after minutes of collection with the
/// report silently dropped.  Requesting JSON also enables the metrics
/// registry so the report's "metrics" section is populated (the registry
/// otherwise follows PATHSEL_METRICS).
inline bool init(int argc, char** argv, const char* bench_id) {
  JsonState& s = json_state();
  s.report = BenchReport{bench_id};
  s.report.set_scale(bench_scale());
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return false;
      }
      s.path = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      s.path = arg + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s\nusage: %s [--json <path>]\n",
                   arg, argv[0]);
      return false;
    }
  }
  if (!s.path.empty()) {
    // Append mode: the probe must not truncate an existing report if this
    // run later dies before finish().
    std::ofstream probe{s.path, std::ios::app};
    if (!probe) {
      std::fprintf(stderr, "--json: cannot open '%s' for writing: %s\n",
                   s.path.c_str(), std::strerror(errno));
      return false;
    }
    MetricsRegistry::global().enable();
  }
  return true;
}

/// Prints the table to stdout and records it in the JSON report.
inline void emit(const Table& table) {
  table.print(std::cout);
  json_state().report.add_table(table);
}

/// Prints the series as CSV and records them in the JSON report.
inline void emit_series(std::string_view title,
                        const std::vector<Series>& series) {
  print_series(std::cout, title, series);
  json_state().report.add_series(title, series);
}

/// Records a free-form result line in the JSON report (callers print their
/// own human-readable form).
inline void note(std::string_view text) { json_state().report.add_note(text); }

/// printf-style convenience: prints the line to stdout and records it.
template <typename... Args>
inline void notef(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  std::fputs(buf, stdout);
  // Strip one trailing newline for the recorded note.
  std::string text{buf};
  if (!text.empty() && text.back() == '\n') text.pop_back();
  note(text);
}

/// Writes the JSON report if --json was requested; returns the process exit
/// code.
inline int finish() {
  JsonState& s = json_state();
  if (s.path.empty()) return 0;
  return s.report.write_file(s.path, MetricsRegistry::global().snapshot())
             ? 0
             : 1;
}

}  // namespace pathsel::bench
