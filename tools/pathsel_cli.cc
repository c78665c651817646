// pathsel command-line tool.
//
//   pathsel_cli generate --dataset UW3 [--scale S] [--seed N] --out FILE
//                        [--faults F] [--fault-seed N]
//       Regenerate one of the paper's datasets and save it.  --faults runs
//       the campaign under a deterministic fault schedule of the given
//       intensity (0..1); 0 reproduces the historical bytes exactly.
//   pathsel_cli info --in FILE
//       Print a dataset's characteristics (its Table 1 row).
//   pathsel_cli analyze --in FILE --metric rtt|loss|bandwidth
//                       [--min-samples N] [--one-hop] [--csv] [--coverage]
//                       [--threads N] [--deadline SEC]
//                       [--kernel auto|dense|search]
//                       [--simd auto|avx2|scalar]
//                       [--disjoint K] [--disjoint-mode link|node]
//       Run the alternate-path analysis on a saved dataset.  --threads
//       defaults to the hardware thread count (or $PATHSEL_THREADS); the
//       results are bit-identical for every value.  --coverage appends a
//       graceful-degradation summary of how much of the mesh backed the
//       results.  --kernel picks the alternate-path engine for --one-hop
//       sweeps: the dense min-plus kernel or the per-pair reference search
//       (auto, the default, switches on table density); output is
//       byte-identical either way.  --simd picks the dense kernel's
//       instruction path (default auto: $PATHSEL_SIMD, then the widest the
//       CPU supports; avx2 falls back to scalar when unsupported); every
//       path is bit-identical, only throughput differs.  --disjoint K
//       switches to the k-disjoint-alternates analyzer: Suurballe/Bhandari
//       computes up to K mutually link-disjoint (--disjoint-mode node:
//       node-disjoint) alternate paths per measured pair over the same
//       weight space, reporting "requested k / found k" accounting; it is
//       mutually exclusive with --one-hop/--kernel/--simd.  K is checked
//       against the graph's N-2 ceiling after the dataset loads (a data
//       error, exit 1); malformed K is a usage error (exit 2).
//       --results-out FILE stops after the sweep and writes the columnar
//       results (core/result_columns.h binary format, atomic + CRC-checked)
//       instead of post-processing; --results-in FILE starts from such a
//       file, skipping the dataset and sweep entirely — the interchange the
//       scenario-matrix workers use to split an analysis from its
//       post-processing.  A --results-out run prints only the `path graph:`
//       line and a --results-in run the `pairs analyzed:` lines onward, so
//       the two stdouts concatenate to exactly the fused run's output (a
//       golden-enforced contract).  Flags that shape the sweep cannot be
//       combined with --results-in, and post-processing flags cannot be
//       combined with --results-out (usage errors, checked before I/O).
//   pathsel_cli campaign --out-dir DIR [--datasets A,B,...] [--scale S]
//                        [--seed N] [--faults F] [--fault-seed N]
//                        [--checkpoint-dir DIR] [--resume]
//                        [--checkpoint-every-hours H] [--deadline SEC]
//                        [--disjoint K]
//       Regenerate a set of datasets (all of Table 1 by default) into DIR
//       with crash safety: with --checkpoint-dir each in-flight dataset is
//       periodically checkpointed (atomically, CRC-checked), and --resume
//       continues an interrupted campaign from the newest valid checkpoint,
//       producing byte-identical outputs to an uninterrupted run.
//       --disjoint K additionally writes a <name>.disjoint.tsv report per
//       dataset (atomic, deterministic) and folds K into the checkpoint
//       fingerprint, so resuming under a different K discards the stale
//       checkpoint instead of splicing runs.
//   pathsel_cli serve --in FILE --trace FILE|- [--readers N] [--queue-cap N]
//                     [--stale-after-ms MS] [--journal-dir DIR] [--resume]
//                     [--compact-every N] [--min-samples N] [--threads N]
//                     [--deadline SEC] [--strict-updates]
//       Run the fault-tolerant online path-selection service (src/serve)
//       against a scripted request/update trace (serve/trace.h grammar; "-"
//       reads stdin).  Query responses print to stdout, byte-identical for
//       every --readers count; diagnostics (rejected updates, journal
//       recovery notes, the closing summary) go to stderr.  --journal-dir
//       enables the crash-safe update journal; --resume replays it (plus the
//       newest compacted state snapshot) so a killed server reconverges to
//       its exact pre-crash state.  Malformed or out-of-range updates are
//       rejected with a reason and never poison the served snapshot; with
//       --strict-updates any rejection turns into a data-error exit (1).
//   pathsel_cli version | --version
//       Print the tool version and every stable on-disk/JSON format version
//       (dataset, checkpoint, results, journal, serve state, bench JSON).
//
// Long-running commands (campaign, analyze) honour --deadline SEC and
// SIGINT/SIGTERM: the run drains cooperatively at the next chunk/event
// boundary, a campaign writes a final checkpoint, and the process exits 5.
// Setting PATHSEL_WATCHDOG=1 starts a stall watchdog (poll cadence derived
// from PATHSEL_WATCHDOG_STALL_S, default 30s); with PATHSEL_WATCHDOG_TRIP=1
// a detected stall also cancels the run.
//
// Every command also accepts --metrics[=table|json]: enables the metrics
// registry for the run and dumps its snapshot to stderr on exit.  Metrics
// are passive — stdout is byte-identical with and without the flag.
//
// Exit codes: 0 success; 1 data error (dataset cannot support the request);
// 2 usage error (unknown command/flag, missing or malformed value);
// 3 input file unreadable; 4 dataset fails to parse; 5 interrupted
// (deadline, signal, or watchdog — campaigns leave a valid checkpoint).
#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/disjoint.h"
#include "core/confidence.h"
#include "core/coverage.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "matrix/cell.h"
#include "matrix/engine.h"
#include "matrix/grid.h"
#include "meas/campaign.h"
#include "meas/catalog.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "serve/engine.h"
#include "serve/journal.h"
#include "serve/trace.h"
#include "util/atomic_io.h"
#include "util/bench_report.h"
#include "util/cancel.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/watchdog.h"

namespace {

using namespace pathsel;

enum ExitCode : int {
  kExitOk = 0,
  kExitDataError = 1,
  kExitUsage = 2,
  kExitUnreadable = 3,
  kExitParseError = 4,
  kExitInterrupted = 5,
};

// Main()-scoped cancellation shared by the long-running commands: trips on
// --deadline, SIGINT/SIGTERM, or the watchdog.
CancelToken g_cancel;

// Maps a failed Status to the documented exit-code contract.
int exit_code_for(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
      return kExitInterrupted;
    case ErrorCode::kIoError:
      return kExitUnreadable;
    case ErrorCode::kParseError:
      return kExitParseError;
    default:
      return kExitDataError;
  }
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pathsel_cli generate --dataset NAME [--scale S] [--seed N] --out FILE\n"
               "                       [--faults F] [--fault-seed N]\n"
               "  pathsel_cli info --in FILE\n"
               "  pathsel_cli analyze --in FILE --metric rtt|loss|bandwidth\n"
               "                      [--min-samples N] [--one-hop] [--csv]\n"
               "                      [--coverage] [--threads N] [--deadline SEC]\n"
               "                      [--kernel auto|dense|search]\n"
               "                      [--simd auto|avx2|scalar]\n"
               "                      [--disjoint K] [--disjoint-mode link|node]\n"
               "                      [--results-out FILE]\n"
               "  pathsel_cli analyze --results-in FILE [--csv] [--threads N]\n"
               "                      [--deadline SEC]\n"
               "  pathsel_cli campaign --out-dir DIR [--datasets A,B,...]\n"
               "                       [--scale S] [--seed N] [--faults F]\n"
               "                       [--fault-seed N] [--checkpoint-dir DIR]\n"
               "                       [--resume] [--checkpoint-every-hours H]\n"
               "                       [--deadline SEC] [--disjoint K]\n"
               "  pathsel_cli matrix --grid FILE --work-dir DIR [--workers N]\n"
               "                     [--threads N] [--resume] [--deadline SEC]\n"
               "  pathsel_cli serve --in FILE --trace FILE|- [--readers N]\n"
               "                    [--queue-cap N] [--stale-after-ms MS]\n"
               "                    [--journal-dir DIR] [--resume]\n"
               "                    [--compact-every N] [--min-samples N]\n"
               "                    [--threads N] [--deadline SEC]\n"
               "                    [--strict-updates]\n"
               "  pathsel_cli version | --version\n"
               "datasets: D2 D2-NA N2 N2-NA UW1 UW3 UW4-A UW4-B\n"
               "--threads defaults to the hardware thread count\n"
               "--metrics[=table|json] dumps run metrics to stderr on exit\n"
               "exit codes: 0 ok, 1 data error, 2 usage, 3 unreadable file,\n"
               "            4 parse error, 5 interrupted (deadline/signal)\n");
  return kExitUsage;
}

using FlagMap = std::map<std::string, std::string>;

// Strict flag parser: every token must be a known flag for the command, and
// value flags must be followed by a value.  Returns false (after a one-line
// diagnostic) on any violation.  `optional_value_flags` take their value
// inline (--flag=value) or default to "table" when given bare.
bool parse_flags(int argc, char** argv, int from,
                 const std::set<std::string>& value_flags,
                 const std::set<std::string>& bool_flags,
                 const std::set<std::string>& optional_value_flags,
                 FlagMap& out) {
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      return false;
    }
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      const std::string bare = key.substr(0, eq);
      if (!optional_value_flags.contains(bare)) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
        return false;
      }
      out[bare] = key.substr(eq + 1);
      continue;
    }
    if (optional_value_flags.contains(key)) {
      out[key] = "table";
    } else if (bool_flags.contains(key)) {
      out[key] = "1";
    } else if (value_flags.contains(key)) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--%s needs a value\n", key.c_str());
        return false;
      }
      out[key] = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

// Strict numeric flag accessors: the whole value must parse and fall inside
// the given range; `out` keeps its default when the flag is absent.
bool invalid_flag(const char* key, const std::string& value) {
  std::fprintf(stderr, "invalid value for --%s: %s\n", key, value.c_str());
  return false;
}

bool flag_i64(const FlagMap& flags, const char* key, std::int64_t lo,
              std::int64_t hi, std::int64_t& out) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  std::int64_t v = 0;
  if (!codec::parse_i64(it->second, v) || v < lo || v > hi) {
    return invalid_flag(key, it->second);
  }
  out = v;
  return true;
}

bool flag_u64(const FlagMap& flags, const char* key, std::uint64_t& out) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  if (!codec::parse_u64(it->second, out)) return invalid_flag(key, it->second);
  return true;
}

bool flag_double(const FlagMap& flags, const char* key, double lo, double hi,
                 double& out) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  double v = 0.0;
  if (!codec::parse_double(it->second, v) || !(v >= lo) || !(v <= hi)) {
    return invalid_flag(key, it->second);
  }
  out = v;
  return true;
}

// Arms g_cancel with the --deadline value when present (seconds of wall
// clock; 0 trips immediately).
bool arm_deadline(const FlagMap& flags) {
  double deadline = 0.0;
  if (!flag_double(flags, "deadline", 0.0, 1e9, deadline)) return false;
  if (flags.contains("deadline")) {
    g_cancel.set_deadline_after_seconds(deadline);
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Writes the campaign-level disjoint report for one finished dataset:
// deterministic TSV (stable column set, %.6g values, table.edges() order),
// written atomically next to the dataset output.  The min-samples floor
// scales with the campaign's --scale (same convention as the bench suite's
// scaled_min_samples) so a reduced-scale campaign still yields a populated
// graph instead of filtering every edge.  Nonzero return is the process
// exit code.
int write_disjoint_report(const std::string& out_dir, const std::string& name,
                          int k, double scale) {
  const std::string ds_path = out_dir + "/" + name + ".ds";
  std::ifstream is{ds_path};
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", ds_path.c_str());
    return kExitUnreadable;
  }
  std::string error;
  auto parsed = meas::read_dataset(is, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "parse error in %s: %s\n", ds_path.c_str(),
                 error.c_str());
    return kExitParseError;
  }
  core::BuildOptions build;
  build.min_samples =
      std::max(3, static_cast<int>(std::llround(30.0 * scale)));
  build.cancel = &g_cancel;
  const auto built = core::PathTable::build_checked(*parsed, build);
  if (!built.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 built.status().to_string().c_str());
    return exit_code_for(built.status());
  }
  const core::PathTable& table = built.value();
  const Status valid = core::validate_disjoint_k(k, table.hosts().size());
  if (!valid.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), valid.to_string().c_str());
    return exit_code_for(valid);
  }
  core::DisjointOptions opt;
  opt.k = k;
  opt.cancel = &g_cancel;
  const auto swept = core::compute_disjoint_alternates(table, opt);
  if (!swept.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 swept.status().to_string().c_str());
    return exit_code_for(swept.status());
  }
  std::string tsv;
  tsv += "# disjoint alternates: dataset=" + name + " mode=" +
         core::to_string(opt.mode) + " k=" + std::to_string(k) +
         " metric=rtt min_samples=" + std::to_string(build.min_samples) +
         "\n";
  tsv += core::render_disjoint_rows(swept.value(), '\t');
  const std::string tsv_path = out_dir + "/" + name + ".disjoint.tsv";
  const Status wrote = write_file_atomic(tsv_path, tsv);
  if (!wrote.is_ok()) {
    std::fprintf(stderr, "%s\n", wrote.to_string().c_str());
    return exit_code_for(wrote);
  }
  std::printf("wrote %s\n", tsv_path.c_str());
  return kExitOk;
}

int cmd_campaign(const FlagMap& flags) {
  const auto out_dir = flags.find("out-dir");
  if (out_dir == flags.end()) {
    std::fprintf(stderr, "campaign needs --out-dir\n");
    return kExitUsage;
  }
  meas::CampaignOptions options;
  options.output_dir = out_dir->second;
  if (const auto it = flags.find("datasets"); it != flags.end()) {
    options.datasets = split_csv(it->second);
    if (options.datasets.empty()) {
      std::fprintf(stderr, "--datasets needs at least one name\n");
      return kExitUsage;
    }
    for (const std::string& name : options.datasets) {
      if (!meas::Catalog::is_dataset_name(name)) {
        std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
        return kExitUsage;
      }
    }
  }
  double scale = 1.0;
  if (!flag_double(flags, "scale", 1e-6, 1.0, scale)) return kExitUsage;
  options.catalog.scale = scale;
  if (!flag_u64(flags, "seed", options.catalog.seed)) return kExitUsage;
  if (!flag_double(flags, "faults", 0.0, 1.0,
                   options.catalog.fault_intensity)) {
    return kExitUsage;
  }
  if (!flag_u64(flags, "fault-seed", options.catalog.fault_seed)) {
    return kExitUsage;
  }
  if (const auto it = flags.find("checkpoint-dir"); it != flags.end()) {
    options.checkpoint_dir = it->second;
  }
  options.resume = flags.contains("resume");
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return kExitUsage;
  }
  double every_hours = 0.0;
  if (!flag_double(flags, "checkpoint-every-hours", 1e-9, 1e9, every_hours)) {
    return kExitUsage;
  }
  if (flags.contains("checkpoint-every-hours")) {
    options.checkpoint_interval = Duration::hours(every_hours);
  }
  std::int64_t disjoint_k = 0;
  if (!flag_i64(flags, "disjoint", 1, 1'000'000, disjoint_k)) {
    return kExitUsage;
  }
  options.disjoint_k = static_cast<int>(disjoint_k);
  if (!arm_deadline(flags)) return kExitUsage;
  options.cancel = &g_cancel;

  // PATHSEL_TEST_CRASH_AFTER=N hard-kills the process (SIGKILL, no cleanup)
  // right after the N-th checkpoint write; the kill-and-resume tests use it
  // to simulate a machine crash at a reproducible instant.
  if (const char* crash_env = std::getenv("PATHSEL_TEST_CRASH_AFTER")) {
    const long crash_after = std::strtol(crash_env, nullptr, 10);
    if (crash_after > 0) {
      options.after_checkpoint = [crash_after](std::size_t writes) {
        if (writes >= static_cast<std::size_t>(crash_after)) {
          std::raise(SIGKILL);
        }
      };
    }
  }

  const meas::CampaignReport report = meas::run_campaign(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  for (const std::string& name : report.loaded) {
    std::printf("kept %s (finished in a previous run)\n", name.c_str());
  }
  for (const std::string& name : report.completed) {
    const bool resumed = std::find(report.resumed.begin(),
                                   report.resumed.end(),
                                   name) != report.resumed.end();
    std::printf("wrote %s%s\n", name.c_str(),
                resumed ? " (resumed from checkpoint)" : "");
  }
  if (!report.status.is_ok()) {
    std::fprintf(stderr, "%s\n", report.status.to_string().c_str());
    if (!report.stopped_in.empty()) {
      std::fprintf(stderr, "interrupted in %s%s\n", report.stopped_in.c_str(),
                   options.checkpoint_dir.empty() ? ""
                                                  : "; checkpoint written");
    }
    return exit_code_for(report.status);
  }
  if (options.disjoint_k > 0) {
    // Reports cover every dataset the run left finished on disk, whether it
    // was produced now or kept from a previous run — a resumed campaign
    // ends with the same set of .disjoint.tsv files as an uninterrupted one.
    for (const auto* names : {&report.completed, &report.loaded}) {
      for (const std::string& name : *names) {
        const int rc = write_disjoint_report(options.output_dir, name,
                                             options.disjoint_k,
                                             options.catalog.scale);
        if (rc != kExitOk) return rc;
      }
    }
  }
  return kExitOk;
}

// `matrix` expands a declarative grid file into scenario cells and fans them
// out over N forked workers coordinating through a flock work queue; the
// merged report is byte-identical for any worker count and across
// kill/resume.  The grid file is parsed and rejected (exit 2) before any
// work-dir I/O happens, so a typo never scribbles on a previous run's state.
int cmd_matrix(const FlagMap& flags) {
  const auto grid_it = flags.find("grid");
  const auto work_it = flags.find("work-dir");
  if (grid_it == flags.end() || work_it == flags.end()) {
    std::fprintf(stderr, "matrix needs --grid and --work-dir\n");
    return kExitUsage;
  }
  std::int64_t workers = 0;
  if (!flag_i64(flags, "workers", 0, matrix::kMaxWorkers, workers)) {
    return kExitUsage;
  }
  std::int64_t threads = 0;
  if (!flag_i64(flags, "threads", 1, 1'000'000, threads)) return kExitUsage;
  if (!arm_deadline(flags)) return kExitUsage;

  const Result<std::string> text = read_file(grid_it->second);
  if (!text.is_ok()) {
    std::fprintf(stderr, "%s\n", text.status().to_string().c_str());
    return kExitUnreadable;
  }
  const Result<matrix::GridConfig> grid = matrix::parse_grid(text.value());
  if (!grid.is_ok()) {
    // A malformed grid is a usage error by contract, whatever code the
    // parser classified it under — and nothing has been written yet.
    std::fprintf(stderr, "%s: %s\n", grid_it->second.c_str(),
                 grid.status().message().c_str());
    return kExitUsage;
  }

  matrix::MatrixOptions options;
  options.grid = grid.value();
  options.work_dir = work_it->second;
  options.workers = static_cast<int>(workers);
  options.threads = static_cast<int>(threads);
  options.resume = flags.contains("resume");
  options.cancel = &g_cancel;
  // Same crash-injection contract as `campaign`, plus a worker selector so
  // the multi-worker kill-and-resume test can kill one specific worker.
  if (const char* crash_env = std::getenv("PATHSEL_TEST_CRASH_AFTER")) {
    const long crash_after = std::strtol(crash_env, nullptr, 10);
    if (crash_after > 0) {
      options.crash_after = static_cast<std::size_t>(crash_after);
    }
  }
  if (const char* worker_env = std::getenv("PATHSEL_MATRIX_CRASH_WORKER")) {
    const long crash_worker = std::strtol(worker_env, nullptr, 10);
    if (crash_worker >= 0 && crash_worker < matrix::kMaxWorkers) {
      options.crash_worker = static_cast<int>(crash_worker);
    }
  }

  const matrix::MatrixReport report = matrix::run_matrix(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!report.status.is_ok()) {
    std::fprintf(stderr, "%s\n", report.status.to_string().c_str());
    return exit_code_for(report.status);
  }
  std::fprintf(stderr, "matrix: %zu cells (%zu reused), report %s\n",
               report.cells_total, report.cells_reused,
               report.report_path.c_str());
  // stdout carries exactly the merged report bytes (== report.txt), so
  // `pathsel_cli matrix ... > out` and the file can be cmp'd interchangeably.
  std::fwrite(report.report.data(), 1, report.report.size(), stdout);
  return kExitOk;
}

int cmd_generate(const FlagMap& flags) {
  const auto dataset = flags.find("dataset");
  const auto out = flags.find("out");
  if (dataset == flags.end() || out == flags.end()) {
    std::fprintf(stderr, "generate needs --dataset and --out\n");
    return kExitUsage;
  }
  static const std::set<std::string> kNames{"D2",  "D2-NA", "N2",    "N2-NA",
                                            "UW1", "UW3",   "UW4-A", "UW4-B"};
  if (!kNames.contains(dataset->second)) {
    std::fprintf(stderr, "unknown dataset: %s\n", dataset->second.c_str());
    return kExitUsage;
  }

  meas::CatalogConfig cfg;
  double scale = 1.0;
  if (!flag_double(flags, "scale", 1e-6, 1.0, scale)) return kExitUsage;
  cfg.scale = scale;
  if (!flag_u64(flags, "seed", cfg.seed)) return kExitUsage;
  if (!flag_double(flags, "faults", 0.0, 1.0, cfg.fault_intensity)) {
    return kExitUsage;
  }
  if (!flag_u64(flags, "fault-seed", cfg.fault_seed)) return kExitUsage;

  meas::Catalog catalog{cfg};
  const meas::Dataset& ds = catalog.by_name(dataset->second);

  std::ofstream os{out->second};
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out->second.c_str());
    return kExitUnreadable;
  }
  meas::write_dataset(os, ds);
  std::printf("wrote %s: %zu hosts, %zu measurements (%zu completed)\n",
              out->second.c_str(), ds.hosts.size(), ds.measurements.size(),
              ds.completed_count());
  return kExitOk;
}

// Loads --in into `ds`; nonzero return is the process exit code.
int load(const FlagMap& flags, meas::Dataset& ds) {
  const auto in = flags.find("in");
  if (in == flags.end()) {
    std::fprintf(stderr, "missing --in FILE\n");
    return kExitUsage;
  }
  std::ifstream is{in->second};
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", in->second.c_str());
    return kExitUnreadable;
  }
  std::string error;
  auto parsed = meas::read_dataset(is, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "parse error in %s: %s\n", in->second.c_str(),
                 error.c_str());
    return kExitParseError;
  }
  ds = std::move(*parsed);
  return kExitOk;
}

int cmd_info(const FlagMap& flags) {
  meas::Dataset ds;
  if (const int rc = load(flags, ds); rc != kExitOk) return rc;
  Table table{"dataset " + ds.name};
  table.set_header({"field", "value"});
  table.add_row({"kind", ds.kind == meas::MeasurementKind::kTraceroute
                             ? "traceroute"
                             : "tcp transfers"});
  table.add_row({"duration", Table::fmt(ds.duration.total_days(), 1) + " days"});
  table.add_row({"hosts", std::to_string(ds.hosts.size())});
  table.add_row({"measurements", std::to_string(ds.measurements.size())});
  table.add_row({"completed", std::to_string(ds.completed_count())});
  table.add_row({"paths covered",
                 std::to_string(ds.covered_paths()) + " / " +
                     std::to_string(ds.potential_paths())});
  table.add_row({"episodes", std::to_string(ds.episode_count)});
  // Fault-aware datasets carry failure causes; legacy ones add no rows here.
  std::array<std::size_t, meas::kFailureReasonCount> failures{};
  bool any_reason = false;
  for (const auto& m : ds.measurements) {
    if (m.completed || m.failure == meas::FailureReason::kNone) continue;
    ++failures[static_cast<std::size_t>(m.failure)];
    any_reason = true;
  }
  if (any_reason) {
    for (std::size_t r = 1; r < meas::kFailureReasonCount; ++r) {
      if (failures[r] == 0) continue;
      table.add_row(
          {std::string{"failed: "} +
               meas::to_string(static_cast<meas::FailureReason>(r)),
           std::to_string(failures[r])});
    }
  }
  table.print(std::cout);
  return kExitOk;
}

void print_coverage(const core::CoverageSummary& c) {
  Table table{"coverage"};
  table.set_header({"field", "value"});
  table.add_row({"hosts", std::to_string(c.hosts)});
  table.add_row({"pairs covered", std::to_string(c.covered_pairs) + " / " +
                                      std::to_string(c.potential_pairs) + " (" +
                                      Table::fmt(100.0 * c.coverage(), 1) +
                                      "%)"});
  table.add_row({"pairs attempted", std::to_string(c.attempted_pairs)});
  table.add_row({"usable paths", std::to_string(c.usable_edges)});
  table.add_row({"under-sampled paths", std::to_string(c.under_sampled_edges)});
  table.add_row({"disconnected pairs", std::to_string(c.disconnected_edges)});
  table.add_row({"attempts", std::to_string(c.attempts)});
  table.add_row({"completed", std::to_string(c.completed)});
  for (std::size_t r = 1; r < meas::kFailureReasonCount; ++r) {
    if (c.failures_by_reason[r] == 0) continue;
    table.add_row({std::string{"failed: "} +
                       meas::to_string(static_cast<meas::FailureReason>(r)),
                   std::to_string(c.failures_by_reason[r])});
  }
  table.print(std::cout);
}

// The post-sweep half of `analyze` — everything after the sweep reads the
// columnar results, whether they came from this process's sweep (fused run)
// or a --results-in file (split run).  Prints the `pairs analyzed:` line
// onward; coverage is nullptr for split runs (it summarizes the dataset,
// which a results file deliberately does not carry).
int run_post_processing(const core::ResultColumns& columns, int threads,
                        const core::CoverageSummary* coverage, bool csv) {
  const auto cdf = core::improvement_cdf(columns, threads);
  const auto tally_checked =
      core::classify_significance_checked(columns, 0.95, threads, &g_cancel);
  if (!tally_checked.is_ok()) {
    std::fprintf(stderr, "%s\n", tally_checked.status().to_string().c_str());
    return exit_code_for(tally_checked.status());
  }
  const core::SignificanceTally& tally = tally_checked.value();
  std::printf("pairs analyzed: %zu\n", columns.size());
  std::printf("better alternate exists: %.0f%%\n",
              100.0 * cdf.fraction_above(0.0));
  std::printf("95%% significant: better %.0f%%, indeterminate %.0f%%, "
              "worse %.0f%%\n",
              100.0 * tally.better, 100.0 * tally.indeterminate,
              100.0 * tally.worse);
  if (coverage != nullptr) print_coverage(*coverage);
  if (csv) {
    const auto series = cdf.to_series("improvement");
    std::printf("improvement,fraction\n");
    for (std::size_t i = 0; i < series.x.size(); ++i) {
      std::printf("%.6g,%.6g\n", series.x[i], series.y[i]);
    }
  }
  return kExitOk;
}

int cmd_analyze(const FlagMap& flags) {
  // Validate every flag before touching the input file, so usage errors are
  // reported as such even when the file is also bad.
  const auto metric_it = flags.find("metric");
  const std::string metric = metric_it == flags.end() ? "rtt" : metric_it->second;
  if (metric != "rtt" && metric != "loss" && metric != "bandwidth") {
    std::fprintf(stderr, "unknown metric: %s\n", metric.c_str());
    return kExitUsage;
  }

  // The split-run flags bound what the run can do: --results-out stops after
  // the sweep (post-processing flags would silently do nothing), --results-in
  // starts after it (sweep-shaping flags could not be honoured).  Both are
  // usage errors caught before any file is touched.
  const bool results_out = flags.contains("results-out");
  const bool results_in = flags.contains("results-in");
  if (results_out) {
    for (const char* other : {"results-in", "csv", "coverage", "disjoint"}) {
      if (flags.contains(other)) {
        std::fprintf(stderr, "--results-out cannot be combined with --%s\n",
                     other);
        return kExitUsage;
      }
    }
    if (metric == "bandwidth") {
      std::fprintf(stderr,
                   "--results-out does not apply to bandwidth analysis\n");
      return kExitUsage;
    }
  }
  if (results_in) {
    for (const char* other :
         {"in", "metric", "min-samples", "one-hop", "kernel", "simd",
          "coverage", "disjoint", "disjoint-mode"}) {
      if (flags.contains(other)) {
        std::fprintf(stderr,
                     "--results-in reads a finished sweep; it cannot be "
                     "combined with --%s\n",
                     other);
        return kExitUsage;
      }
    }
  }

  core::Kernel kernel = core::Kernel::kAuto;
  if (const auto it = flags.find("kernel"); it != flags.end()) {
    if (it->second == "auto") {
      kernel = core::Kernel::kAuto;
    } else if (it->second == "dense") {
      kernel = core::Kernel::kDense;
    } else if (it->second == "search") {
      kernel = core::Kernel::kSearch;
    } else {
      std::fprintf(stderr, "invalid value for --kernel: %s\n",
                   it->second.c_str());
      return kExitUsage;
    }
    if (metric == "bandwidth") {
      std::fprintf(stderr, "--kernel does not apply to bandwidth analysis\n");
      return kExitUsage;
    }
    if (kernel == core::Kernel::kDense && !flags.contains("one-hop")) {
      std::fprintf(stderr, "--kernel dense requires --one-hop\n");
      return kExitUsage;
    }
  }

  core::SimdMode simd = core::SimdMode::kAuto;
  if (const auto it = flags.find("simd"); it != flags.end()) {
    if (it->second == "auto") {
      simd = core::SimdMode::kAuto;
    } else if (it->second == "avx2") {
      simd = core::SimdMode::kAvx2;
    } else if (it->second == "scalar") {
      simd = core::SimdMode::kScalar;
    } else {
      std::fprintf(stderr, "invalid value for --simd: %s\n",
                   it->second.c_str());
      return kExitUsage;
    }
    if (metric == "bandwidth") {
      std::fprintf(stderr, "--simd does not apply to bandwidth analysis\n");
      return kExitUsage;
    }
  }

  // The disjoint analyzer replaces the alternate sweep; a malformed or
  // non-positive K is a usage error here, while a K exceeding the graph's
  // N-2 ceiling is a data error detected after the dataset loads.
  std::int64_t disjoint_k = 0;
  core::DisjointMode disjoint_mode = core::DisjointMode::kLinkDisjoint;
  if (flags.contains("disjoint")) {
    if (!flag_i64(flags, "disjoint", 1, 1'000'000, disjoint_k)) {
      return kExitUsage;
    }
    if (metric == "bandwidth") {
      std::fprintf(stderr, "--disjoint does not apply to bandwidth analysis\n");
      return kExitUsage;
    }
    for (const char* other : {"one-hop", "kernel", "simd"}) {
      if (flags.contains(other)) {
        std::fprintf(stderr, "--disjoint cannot be combined with --%s\n",
                     other);
        return kExitUsage;
      }
    }
  }
  if (const auto it = flags.find("disjoint-mode"); it != flags.end()) {
    if (disjoint_k == 0) {
      std::fprintf(stderr, "--disjoint-mode requires --disjoint K\n");
      return kExitUsage;
    }
    if (it->second == "link") {
      disjoint_mode = core::DisjointMode::kLinkDisjoint;
    } else if (it->second == "node") {
      disjoint_mode = core::DisjointMode::kNodeDisjoint;
    } else {
      std::fprintf(stderr, "invalid value for --disjoint-mode: %s\n",
                   it->second.c_str());
      return kExitUsage;
    }
  }

  // 0 resolves to default_thread_count() (PATHSEL_THREADS env override, else
  // hardware_concurrency); --threads 1 forces the serial path.
  std::int64_t threads = 0;
  if (!flag_i64(flags, "threads", 0, 4096, threads)) return kExitUsage;

  core::BuildOptions build;
  build.min_samples = 30;
  std::int64_t min_samples = build.min_samples;
  if (!flag_i64(flags, "min-samples", 1, 1'000'000, min_samples)) {
    return kExitUsage;
  }
  build.min_samples = static_cast<int>(min_samples);
  build.threads = static_cast<int>(threads);
  if (!arm_deadline(flags)) return kExitUsage;
  build.cancel = &g_cancel;

  if (results_in) {
    const std::string& path = flags.at("results-in");
    const auto sets = core::read_result_columns(path);
    if (!sets.is_ok()) {
      std::fprintf(stderr, "%s\n", sets.status().to_string().c_str());
      return exit_code_for(sets.status());
    }
    if (sets.value().size() != 1) {
      std::fprintf(stderr,
                   "%s holds %zu column sets; analyze --results-in needs "
                   "exactly one\n",
                   path.c_str(), sets.value().size());
      return kExitDataError;
    }
    return run_post_processing(sets.value().front(), static_cast<int>(threads),
                               nullptr, flags.contains("csv"));
  }

  meas::Dataset ds;
  if (const int rc = load(flags, ds); rc != kExitOk) return rc;

  if (metric == "bandwidth") {
    if (ds.kind != meas::MeasurementKind::kTcpTransfer) {
      std::fprintf(stderr, "bandwidth analysis needs a tcp dataset\n");
      return kExitDataError;
    }
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) {
      std::fprintf(stderr, "%s\n", built.status().to_string().c_str());
      return exit_code_for(built.status());
    }
    const core::PathTable& table = built.value();
    std::printf("path graph: %zu measured paths over %zu hosts\n",
                table.edges().size(), table.hosts().size());
    if (table.edges().empty()) {
      std::fprintf(stderr, "no path met the min_samples filter\n");
      return kExitDataError;
    }
    for (const auto& [label, comp] :
         {std::pair{"optimistic", core::LossComposition::kOptimistic},
          std::pair{"pessimistic", core::LossComposition::kPessimistic}}) {
      const auto results = core::analyze_bandwidth(table, comp);
      const auto cdf = core::bandwidth_improvement_cdf(results);
      std::printf("%s: %zu pairs, %.0f%% with a better one-hop alternate\n",
                  label, results.size(), 100.0 * cdf.fraction_above(0.0));
    }
    if (flags.contains("coverage")) {
      print_coverage(core::summarize_coverage(ds, table));
    }
    return kExitOk;
  }

  if (disjoint_k > 0) {
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) {
      std::fprintf(stderr, "%s\n", built.status().to_string().c_str());
      return exit_code_for(built.status());
    }
    const core::PathTable& table = built.value();
    std::printf("path graph: %zu measured paths over %zu hosts\n",
                table.edges().size(), table.hosts().size());
    const Status valid =
        core::validate_disjoint_k(static_cast<int>(disjoint_k),
                                  table.hosts().size());
    if (!valid.is_ok()) {
      std::fprintf(stderr, "%s\n", valid.to_string().c_str());
      return exit_code_for(valid);
    }
    core::DisjointOptions opt;
    opt.metric =
        metric == "rtt" ? core::Metric::kRtt : core::Metric::kLoss;
    opt.k = static_cast<int>(disjoint_k);
    opt.mode = disjoint_mode;
    opt.threads = static_cast<int>(threads);
    opt.cancel = &g_cancel;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    if (!swept.is_ok()) {
      std::fprintf(stderr, "%s\n", swept.status().to_string().c_str());
      return exit_code_for(swept.status());
    }
    const std::vector<core::PairDisjointResult>& results = swept.value();
    std::printf("disjoint analysis: mode=%s, requested k=%d\n",
                core::to_string(opt.mode), opt.k);
    std::printf("pairs analyzed: %zu\n", results.size());
    std::vector<std::size_t> found_hist(
        static_cast<std::size_t>(opt.k) + 1, 0);
    std::size_t beats_direct = 0;
    for (const core::PairDisjointResult& r : results) {
      ++found_hist[static_cast<std::size_t>(r.found_k())];
      if (!r.paths.empty() && r.paths.front().value < r.default_value) {
        ++beats_direct;
      }
    }
    Table table_out{"requested k / found k"};
    table_out.set_header({"found", "pairs", "fraction"});
    for (std::size_t j = 0; j < found_hist.size(); ++j) {
      table_out.add_row(
          {std::to_string(j) + " / " + std::to_string(opt.k),
           std::to_string(found_hist[j]),
           Table::fmt(results.empty()
                          ? 0.0
                          : 100.0 * static_cast<double>(found_hist[j]) /
                                static_cast<double>(results.size()),
                      1) +
               "%"});
    }
    table_out.print(std::cout);
    std::printf("best disjoint alternate beats direct: %.0f%%\n",
                results.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(beats_direct) /
                          static_cast<double>(results.size()));
    if (flags.contains("csv")) {
      const std::string rows = core::render_disjoint_rows(results, ',');
      std::fwrite(rows.data(), 1, rows.size(), stdout);
    }
    return kExitOk;
  }

  core::AnalyzerOptions analyze;
  analyze.metric = metric == "rtt" ? core::Metric::kRtt : core::Metric::kLoss;
  if (flags.contains("one-hop")) analyze.max_intermediate_hosts = 1;
  analyze.threads = static_cast<int>(threads);
  analyze.cancel = &g_cancel;
  analyze.kernel = kernel;
  analyze.simd = simd;

  auto result = core::analyze_columns_with_coverage(ds, build, analyze);
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return exit_code_for(result.status());
  }
  core::DegradedColumnsAnalysis& analysis = result.value();
  std::printf("path graph: %zu measured paths over %zu hosts\n",
              analysis.coverage.usable_edges, analysis.coverage.hosts);
  if (results_out) {
    // Stop after the sweep: classify (so the file carries the verdicts) and
    // write the columns.  stdout holds only the `path graph:` line, so a
    // later --results-in run's stdout concatenates to the fused output.
    const std::string& path = flags.at("results-out");
    const Status annotated = core::annotate_significance(
        analysis.columns, 0.95, static_cast<int>(threads), &g_cancel);
    if (!annotated.is_ok()) {
      std::fprintf(stderr, "%s\n", annotated.to_string().c_str());
      return exit_code_for(annotated);
    }
    const Status wrote = core::write_result_columns(
        path, std::span<const core::ResultColumns>{&analysis.columns, 1});
    if (!wrote.is_ok()) {
      std::fprintf(stderr, "%s\n", wrote.to_string().c_str());
      return exit_code_for(wrote);
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return kExitOk;
  }
  return run_post_processing(
      analysis.columns, static_cast<int>(threads),
      flags.contains("coverage") ? &analysis.coverage : nullptr,
      flags.contains("csv"));
}

int cmd_serve(const FlagMap& flags) {
  // Validate every flag before touching any file, so usage errors are cheap
  // and never leave a half-initialized journal directory behind.
  const auto trace_flag = flags.find("trace");
  if (trace_flag == flags.end()) {
    std::fprintf(stderr, "serve needs --trace FILE (or - for stdin)\n");
    return kExitUsage;
  }
  std::int64_t readers = 1;
  std::int64_t queue_cap = 1024;
  std::int64_t stale_after_ms = 5000;
  std::int64_t compact_every = 1024;
  std::int64_t min_samples = 30;
  std::int64_t threads = 0;
  if (!flag_i64(flags, "readers", 1, 256, readers) ||
      !flag_i64(flags, "queue-cap", 1, 1'000'000'000, queue_cap) ||
      !flag_i64(flags, "stale-after-ms", 0, std::int64_t{1} << 60,
                stale_after_ms) ||
      !flag_i64(flags, "compact-every", 0, 1'000'000'000, compact_every) ||
      !flag_i64(flags, "min-samples", 1, 1'000'000'000, min_samples) ||
      !flag_i64(flags, "threads", 1, 4096, threads)) {
    return kExitUsage;
  }
  if (flags.contains("resume") && !flags.contains("journal-dir")) {
    std::fprintf(stderr, "--resume needs --journal-dir\n");
    return kExitUsage;
  }
  if (!arm_deadline(flags)) return kExitUsage;

  meas::Dataset ds;
  if (const int rc = load(flags, ds); rc != kExitOk) return rc;

  serve::ServeOptions options;
  options.build.min_samples = static_cast<int>(min_samples);
  options.build.cancel = &g_cancel;
  options.threads = static_cast<int>(threads);
  options.queue_capacity = static_cast<std::size_t>(queue_cap);
  options.stale_after_ms = stale_after_ms;
  if (const auto dir = flags.find("journal-dir"); dir != flags.end()) {
    options.journal_dir = dir->second;
  }
  options.resume = flags.contains("resume");
  options.compact_every = static_cast<std::uint64_t>(compact_every);
  options.cancel = &g_cancel;
  options.max_reader_slots = static_cast<std::size_t>(readers);

  // PATHSEL_TEST_CRASH_AFTER=N hard-kills the server (SIGKILL, no cleanup)
  // right after the N-th journal append — after the record is durable but
  // before it mutates anything.  The kill-and-resume tests use it to place
  // a machine crash at the worst reproducible instant.
  if (const char* crash_env = std::getenv("PATHSEL_TEST_CRASH_AFTER")) {
    const long crash_after = std::strtol(crash_env, nullptr, 10);
    if (crash_after > 0) {
      options.crash_after_appends = static_cast<std::size_t>(crash_after);
    }
  }

  auto engine = serve::ServeEngine::create(ds, options);
  if (!engine.is_ok()) {
    std::fprintf(stderr, "%s\n", engine.status().to_string().c_str());
    return exit_code_for(engine.status());
  }
  for (const std::string& note : engine.value()->recovery_log()) {
    std::fprintf(stderr, "serve: %s\n", note.c_str());
  }

  std::ifstream trace_file;
  std::istream* trace_in = &std::cin;
  if (trace_flag->second != "-") {
    trace_file.open(trace_flag->second);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", trace_flag->second.c_str());
      return kExitUnreadable;
    }
    trace_in = &trace_file;
  }

  serve::TraceOptions trace_options;
  trace_options.readers = static_cast<int>(readers);
  const Result<serve::TraceStats> stats = serve::run_trace(
      *engine.value(), *trace_in, std::cout, std::cerr, trace_options);
  if (!stats.is_ok()) {
    std::fprintf(stderr, "%s\n", stats.status().to_string().c_str());
    return exit_code_for(stats.status());
  }
  const serve::ServeCounters counters = engine.value()->counters();
  std::fprintf(stderr,
               "serve: %zu ops, %zu queries, %zu updates accepted, "
               "%zu rejected, %llu applied, %llu shed, %llu snapshots\n",
               stats.value().lines, stats.value().queries,
               stats.value().updates, stats.value().rejected,
               static_cast<unsigned long long>(counters.updates_applied),
               static_cast<unsigned long long>(counters.updates_shed),
               static_cast<unsigned long long>(counters.snapshots_published));
  if (flags.contains("strict-updates") && stats.value().rejected > 0) {
    std::fprintf(stderr, "serve: --strict-updates and %zu rejections\n",
                 stats.value().rejected);
    return kExitDataError;
  }
  return kExitOk;
}

#ifndef PATHSEL_VERSION
#define PATHSEL_VERSION "unknown"
#endif

// The version report names every stable format a release promises to keep
// readable, so operators can check compatibility without consulting docs.
int print_version() {
  std::printf("pathsel_cli %s\n", PATHSEL_VERSION);
  std::printf("formats:\n");
  std::printf("  dataset      %s\n", meas::kDatasetHeader);
  std::printf("  checkpoint   %s\n", meas::kCheckpointHeader);
  std::printf("  results      PSRC v%u\n", core::kResultColumnsVersion);
  std::printf("  grid         pathsel-grid v%u\n", matrix::kGridFormatVersion);
  std::printf("  matrix-cell  pathsel-matrix-cell v%u\n",
              matrix::kCellSummaryVersion);
  std::printf("  journal      PSJL v%u\n", serve::kJournalVersion);
  std::printf("  serve-state  PSSV v%u\n", serve::kServeStateVersion);
  std::printf("  bench-json   schema_version %d\n", kBenchSchemaVersion);
  return kExitOk;
}

// Dumps the registry snapshot to stderr in the requested format.  stderr
// keeps stdout byte-identical to a metrics-off run (metrics are passive).
void dump_metrics(const std::string& format) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  if (format == "json") {
    std::fprintf(stderr, "%s\n", metrics_to_json(snap).c_str());
    return;
  }
  std::fprintf(stderr, "-- metrics --\n");
  for (const auto& [name, value] : snap.counters) {
    std::fprintf(stderr, "counter  %-45s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::fprintf(stderr, "gauge    %-45s %.3f\n", name.c_str(), value);
  }
  for (const auto& [name, p] : snap.phases) {
    std::fprintf(stderr,
                 "phase    %-45s calls=%llu wall=%.2fms cpu=%.2fms "
                 "self=%.2fms\n",
                 name.c_str(), static_cast<unsigned long long>(p.calls),
                 static_cast<double>(p.wall_ns) / 1e6,
                 static_cast<double>(p.cpu_ns) / 1e6,
                 static_cast<double>(p.self_wall_ns()) / 1e6);
  }
  for (const auto& [name, h] : snap.histograms) {
    std::fprintf(stderr, "histo    %-45s total=%llu\n", name.c_str(),
                 static_cast<unsigned long long>(h.total));
  }
}

// Runs `cmd` with the registry enabled when --metrics was given, dumping the
// snapshot afterwards.  The flag value must be "table" or "json".
int with_metrics(const FlagMap& flags, int (*cmd)(const FlagMap&)) {
  const auto it = flags.find("metrics");
  if (it != flags.end()) {
    if (it->second != "table" && it->second != "json") {
      std::fprintf(stderr, "invalid value for --metrics: %s\n",
                   it->second.c_str());
      return kExitUsage;
    }
    MetricsRegistry::global().enable();
  }
  const int rc = cmd(flags);
  if (it != flags.end()) dump_metrics(it->second);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  FlagMap flags;
  if (command == "version" || command == "--version") {
    if (argc != 2) {
      std::fprintf(stderr, "version takes no arguments\n");
      return kExitUsage;
    }
    return print_version();
  }
  if (command == "generate") {
    if (!parse_flags(argc, argv, 2,
                     {"dataset", "scale", "seed", "out", "faults", "fault-seed"},
                     {}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return with_metrics(flags, cmd_generate);
  }
  if (command == "info") {
    if (!parse_flags(argc, argv, 2, {"in"}, {}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return with_metrics(flags, cmd_info);
  }
  // The long-running commands drain cooperatively on Ctrl-C / TERM and can
  // be liveness-monitored via PATHSEL_WATCHDOG (see the header comment).
  const auto run_interruptible = [&flags](int (*cmd)(const FlagMap&)) {
    g_cancel.arm_signal(SIGINT);
    g_cancel.arm_signal(SIGTERM);
    Watchdog dog;
    Watchdog::start_from_env(dog, &g_cancel);
    const int rc = with_metrics(flags, cmd);
    dog.stop();
    return rc;
  };
  if (command == "analyze") {
    if (!parse_flags(argc, argv, 2,
                     {"in", "metric", "min-samples", "threads", "deadline",
                      "kernel", "simd", "disjoint", "disjoint-mode",
                      "results-out", "results-in"},
                     {"one-hop", "csv", "coverage"}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return run_interruptible(cmd_analyze);
  }
  if (command == "campaign") {
    if (!parse_flags(argc, argv, 2,
                     {"out-dir", "datasets", "scale", "seed", "faults",
                      "fault-seed", "checkpoint-dir", "checkpoint-every-hours",
                      "deadline", "disjoint"},
                     {"resume"}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return run_interruptible(cmd_campaign);
  }
  if (command == "matrix") {
    if (!parse_flags(argc, argv, 2,
                     {"grid", "work-dir", "workers", "threads", "deadline"},
                     {"resume"}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return run_interruptible(cmd_matrix);
  }
  if (command == "serve") {
    if (!parse_flags(argc, argv, 2,
                     {"in", "trace", "readers", "queue-cap", "stale-after-ms",
                      "journal-dir", "compact-every", "min-samples", "threads",
                      "deadline"},
                     {"resume", "strict-updates"}, {"metrics"}, flags)) {
      return kExitUsage;
    }
    return run_interruptible(cmd_serve);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return usage();
}
