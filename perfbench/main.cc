// perfbench: the repository benchmark binary.
//
//   perfbench --workload study|serve|whatif --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID] [--sweep]
//
// Untraced (--trace 0) runs measure the end-to-end figures; a traced run
// records a span around every library call and measures per-layer figures
// instead.  Every metric is printed by name with its unit and sample count,
// the run context goes to DIR/results, spans to DIR/trace, and the last
// stdout line is one JSON object with every metric the run measured:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py keeps the metrics BENCHMARK.json declares.  The exit code is 0 only
// when every output check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload study|serve|whatif --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit ID] "
               "[--sweep]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep") {
      o.sweep = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value;
      have_dir = true;
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (o.workload != "study" && o.workload != "serve" && o.workload != "whatif") {
    usage("--workload must be study, serve or whatif");
  }
  if (!have_dir) usage("--work-dir is required");
  if (o.sweep && o.workload != "serve") usage("--sweep applies to serve only");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string map_json(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("metric %-40s %16.6f %-6s (n=%zu)\n", name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

int run(const Options& options) {
  const std::filesystem::path root{options.work_dir};
  std::error_code ec;
  std::filesystem::create_directories(root / "results", ec);
  std::filesystem::create_directories(root / "trace", ec);

  std::map<std::string, std::string> context = host_context();
  context["workload"] = options.workload;
  context["seed"] = std::to_string(options.seed);
  context["seconds"] = json_number(options.seconds);
  context["trace"] = std::to_string(options.trace ? 1 : 0);
  context["commit"] = options.commit;
  const std::string run_id = options.workload + "-s" +
                             std::to_string(options.seed) + "-p" +
                             std::to_string(::getpid());
  context["run_id"] = run_id;

  if (options.trace) tracer().start(run_id);
  double calib_ms = 0.0;
  {
    PB_SPAN("host.calib");
    calib_ms = calibrate_host_ms();
  }
  context["host.calib_ms"] = json_number(calib_ms);

  WorkloadResult result = options.workload == "study"   ? run_study(options)
                          : options.workload == "serve" ? run_serve(options)
                                                        : run_whatif(options);
  for (const auto& [k, v] : result.context) context[k] = v;
  {
    // The work files are large (about 50 MB of .ds text for study); results
    // and traces stay.
    PB_SPAN("bench.cleanup");
    std::filesystem::remove_all(root / options.workload, ec);
  }

  std::map<std::string, SpanTotals> totals;
  if (options.trace) {
    tracer().stop();
    totals = tracer().totals();
    const double wall = tracer().wall_ms();
    const double unattributed = tracer().unattributed_ms();
    result.set("host.calib_ms", calib_ms, "ms");
    result.set("unattributed_ms", unattributed, "ms");
    result.set("trace.attributed_frac",
               wall > 0.0 ? 1.0 - unattributed / wall : 0.0, "frac");
    for (const auto& [name, v] : result.counters) {
      result.set(name, static_cast<double>(v), "count");
    }
    const std::string spans_path =
        (root / "trace" / (run_id + ".spans.jsonl")).string();
    if (!tracer().write_jsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
  }
  if (result.attempted > 0) {
    result.set("error_rate",
               static_cast<double>(result.failed) /
                   static_cast<double>(result.attempted),
               "frac", result.attempted);
  }
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.check(false, name + " is not a finite number");
    }
  }
  // Every run is at least one attempted operation: the workload itself.
  if (result.attempted == 0) result.check(false, "the workload ran nothing");
  const bool correct = result.failed == 0 && result.check_failures.empty();

  std::printf("context %s\n", map_json(context).c_str());
  for (const auto& [name, m] : result.metrics) print_metric(name, m);
  for (const auto& [name, t] : totals) {
    std::printf("span   %-34s calls=%-8llu self_ms=%.3f total_ms=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.self_ns) / 1e6,
                static_cast<double>(t.total_ns) / 1e6);
  }
  for (const std::string& f : result.check_failures) {
    std::printf("FAILED %s\n", f.c_str());
  }

  // The full record of the run, for later comparison.
  std::string spans = "{";
  bool first = true;
  for (const auto& [name, t] : totals) {
    if (!first) spans += ", ";
    first = false;
    spans += json_string(name) + ": {\"calls\": " + std::to_string(t.calls) +
             ", \"self_ms\": " + json_number(static_cast<double>(t.self_ns) / 1e6) +
             ", \"total_ms\": " +
             json_number(static_cast<double>(t.total_ns) / 1e6) + "}";
  }
  spans += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i != 0) failures += ", ";
    failures += json_string(result.check_failures[i]);
  }
  failures += "]";
  {
    std::ofstream os{root / "results" / (run_id + ".json")};
    os << "{\"context\": " << map_json(context)
       << ", \"metrics\": " << metrics_json(result.metrics, true)
       << ", \"spans\": " << spans << ", \"check_failures\": " << failures << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result.metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
