// pathsel command-line tool.  `pathsel_cli` with no arguments prints the
// synopsis, generated from the per-command flag tables (kCommands, at the
// bottom of this file).
//
//   pathsel_cli generate
//       Regenerate one of the paper's datasets and save it (atomically).
//       --faults runs the campaign under a deterministic fault schedule of
//       the given intensity (0..1); 0 reproduces the historical bytes
//       exactly.
//   pathsel_cli info
//       Print a dataset's characteristics (its Table 1 row).
//   pathsel_cli analyze
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
//   pathsel_cli campaign
//       Regenerate a set of datasets (all of Table 1 by default) into DIR
//       with crash safety: with --checkpoint-dir each in-flight dataset is
//       periodically checkpointed (atomically, CRC-checked), and --resume
//       continues an interrupted campaign from the newest valid checkpoint,
//       producing byte-identical outputs to an uninterrupted run.
//       --disjoint K additionally writes a <name>.disjoint.tsv report per
//       dataset (atomic, deterministic) and folds K into the checkpoint
//       fingerprint, so resuming under a different K discards the stale
//       checkpoint instead of splicing runs.
//   pathsel_cli matrix
//       Expand a declarative grid file into scenario cells and fan them out
//       over N forked workers coordinating through a flock work queue; the
//       merged report is byte-identical for any worker count and across
//       kill/resume.
//   pathsel_cli serve
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
// Every usage error — stray argument, unknown flag, missing or malformed
// value, out-of-range number, unknown choice, missing required flag,
// conflicting flags — is caught by one parser walking argv against the
// command's table, before any file is touched.  Only the rules that depend
// on a flag's value, not its presence, are checked by the handlers.
//
// Long-running commands (campaign, analyze, matrix, serve) honour --deadline
// SEC and SIGINT/SIGTERM: the run drains cooperatively at the next
// chunk/event boundary, a campaign writes a final checkpoint, and the
// process exits 5.  Setting PATHSEL_WATCHDOG=1 starts a stall watchdog (poll
// cadence derived from PATHSEL_WATCHDOG_STALL_S, default 30s); with
// PATHSEL_WATCHDOG_TRIP=1 a detected stall also cancels the run.
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
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/confidence.h"
#include "core/coverage.h"
#include "core/disjoint.h"
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

// Prints a failed Status as the one-line diagnostic and returns its exit code.
int exit_with(const Status& status) {
  std::fprintf(stderr, "%s\n", status.to_string().c_str());
  return exit_code_for(status);
}

// ---- Flag tables -----------------------------------------------------------

struct Options;

// Where a flag's value lands.  The field's type is the flag's kind: bool
// (takes no value), text, int, uint, real, or — for int fields — a choice,
// stored as the index of the chosen word in the flag's metavar.
using Field =
    std::variant<bool Options::*, std::string Options::*, int Options::*,
                 std::int64_t Options::*, std::uint64_t Options::*,
                 double Options::*>;

// Every command's parsed flags.  A field keeps its default when its flag is
// absent; has() tells the few rules that care whether it was given.  A
// choice's words are listed in the order of the enum its index casts to.
struct Options {
  std::string in, out, dataset, datasets, out_dir, checkpoint_dir, grid,
      work_dir, trace, journal_dir, results_in, results_out;
  double scale = 1.0;
  std::uint64_t seed = meas::CatalogConfig{}.seed;
  double faults = 0.0;
  std::uint64_t fault_seed = meas::CatalogConfig{}.fault_seed;
  double checkpoint_every_hours = 0.0;
  int metric = 0;         // rtt|loss|bandwidth: core::Metric, then bandwidth
  int kernel = 0;         // core::Kernel
  int simd = 0;           // core::SimdMode
  int disjoint_mode = 0;  // core::DisjointMode
  int metrics = 0;        // table|json
  std::int64_t min_samples = 30;
  std::int64_t disjoint = 0;
  std::int64_t threads = 0;
  std::int64_t workers = 0;
  std::int64_t readers = 1;
  std::int64_t queue_cap = 1024;
  std::int64_t stale_after_ms = 5000;
  std::int64_t compact_every = 1024;
  double deadline = 0.0;
  bool one_hop = false, csv = false, coverage = false, resume = false,
       strict_updates = false;
  std::vector<Field> given;

  template <class T>
  [[nodiscard]] bool has(T Options::*field) const {
    return std::find(given.begin(), given.end(), Field{field}) != given.end();
  }
};

constexpr int kBandwidth = 2;  // --metric index past core::Metric's rtt, loss
constexpr int kJson = 1;       // --metrics index

struct Flag {
  const char* name;
  Field field;
  const char* metavar = nullptr;  // value placeholder; a choice's words
  double lo = 0.0, hi = 0.0;      // inclusive range of int and real values
  const char* bare = nullptr;     // value when given bare; only such a flag
                                  // takes an inline value (--flag=value)
};

// `flag` given: each of `others` is refused (conflicts), or at least one of
// them must be given too (needs).
struct Rule {
  const char* flag;
  std::vector<const char*> others;
};

struct Command {
  const char* name;
  int (*run)(const Options&);
  bool interruptible;  // drains on SIGINT/SIGTERM/--deadline; watchdog-able
  std::vector<Flag> flags;
  std::vector<std::vector<const char*>> required;  // one of each group
  std::vector<Rule> conflicts = {};
  std::vector<Rule> needs = {};
};

bool reject(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return false;
}

std::string join_flags(const std::vector<const char*>& names) {
  std::string out;
  for (const char* name : names) {
    out += (out.empty() ? "--" : " or --") + std::string{name};
  }
  return out;
}

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};

// Stores `value` in the flag's field; false when it does not parse, falls
// outside the range or is none of the choice's words.
bool store(const Flag& flag, std::string_view value, Options& o) {
  return std::visit(
      Overloaded{
          [&](bool Options::*f) { return o.*f = true; },
          [&](std::string Options::*f) {
            o.*f = value;
            return true;
          },
          [&](int Options::*f) {
            std::string_view words = flag.metavar;
            for (int index = 0;; ++index) {
              const std::size_t bar = words.find('|');
              if (words.substr(0, bar) == value) {
                o.*f = index;
                return true;
              }
              if (bar == std::string_view::npos) return false;
              words.remove_prefix(bar + 1);
            }
          },
          [&](std::int64_t Options::*f) {
            std::int64_t v = 0;
            if (!codec::parse_i64(value, v) ||
                v < static_cast<std::int64_t>(flag.lo) ||
                v > static_cast<std::int64_t>(flag.hi)) {
              return false;
            }
            o.*f = v;
            return true;
          },
          [&](std::uint64_t Options::*f) {
            return codec::parse_u64(value, o.*f);
          },
          [&](double Options::*f) {
            double v = 0.0;
            if (!codec::parse_double(value, v) || !(v >= flag.lo) ||
                !(v <= flag.hi)) {
              return false;
            }
            o.*f = v;
            return true;
          }},
      flag.field);
}

// Walks argv[2..] against the command's table into `o`.  Every usage error
// is caught here, before any I/O, with a one-line diagnostic.
bool parse(const Command& cmd, int argc, char** argv, Options& o) {
  std::set<std::string_view> seen;
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!token.starts_with("--")) {
      return reject("unexpected argument: " + std::string{token});
    }
    const std::string_view body = token.substr(2);
    const std::size_t eq = body.find('=');
    const auto flag = std::find_if(
        cmd.flags.begin(), cmd.flags.end(),
        [name = body.substr(0, eq)](const Flag& f) { return name == f.name; });
    if (flag == cmd.flags.end() ||
        (eq != std::string_view::npos && flag->bare == nullptr)) {
      return reject("unknown flag: " + std::string{token});
    }
    std::string_view value;
    if (flag->bare != nullptr) {
      value = eq == std::string_view::npos ? flag->bare : body.substr(eq + 1);
    } else if (!std::holds_alternative<bool Options::*>(flag->field)) {
      if (i + 1 >= argc) {
        return reject(std::string{token} + " needs a value");
      }
      value = argv[++i];
    }
    if (!store(*flag, value, o)) {
      return reject("invalid value for --" + std::string{flag->name} + ": " +
                    std::string{value});
    }
    seen.insert(flag->name);
    o.given.push_back(flag->field);
  }
  const auto any_seen = [&seen](const std::vector<const char*>& names) {
    return std::any_of(names.begin(), names.end(),
                       [&seen](const char* n) { return seen.contains(n); });
  };
  for (const auto& group : cmd.required) {
    if (!any_seen(group)) {
      return reject(std::string{cmd.name} + " needs " + join_flags(group));
    }
  }
  for (const Rule& rule : cmd.conflicts) {
    if (!seen.contains(rule.flag)) continue;
    for (const char* other : rule.others) {
      if (seen.contains(other)) {
        return reject("--" + std::string{rule.flag} +
                      " cannot be combined with --" + other);
      }
    }
  }
  for (const Rule& rule : cmd.needs) {
    if (seen.contains(rule.flag) && !any_seen(rule.others)) {
      return reject("--" + std::string{rule.flag} + " needs " +
                    join_flags(rule.others));
    }
  }
  return true;
}

// ---- Shared helpers --------------------------------------------------------

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

// Loads a dataset file into `ds`; nonzero return is the process exit code
// (3 unreadable, 4 malformed).
int load(const std::string& path, meas::Dataset& ds) {
  Result<meas::Dataset> loaded = meas::load_dataset(path);
  if (!loaded.is_ok()) return exit_with(loaded.status());
  ds = std::move(loaded.value());
  return kExitOk;
}

meas::CatalogConfig catalog_config(const Options& o) {
  return {.seed = o.seed,
          .scale = o.scale,
          .fault_intensity = o.faults,
          .fault_seed = o.fault_seed};
}

// The kill-and-resume tests' hooks, read from the environment (0 when
// unset).  PATHSEL_TEST_CRASH_AFTER=N hard-kills the process (SIGKILL, no
// cleanup) right after its N-th durable write — a campaign checkpoint, a
// matrix cell checkpoint, a serve journal append — to place a machine crash
// at a reproducible instant; PATHSEL_MATRIX_CRASH_WORKER picks the matrix
// worker that crashes.
long test_hook(const char* name) {
  const char* env = std::getenv(name);
  return env == nullptr ? 0 : std::strtol(env, nullptr, 10);
}

std::size_t test_crash_after() {
  return static_cast<std::size_t>(
      std::max(test_hook("PATHSEL_TEST_CRASH_AFTER"), 0L));
}

// ---- Commands --------------------------------------------------------------

// Writes the campaign-level disjoint report for one finished dataset:
// deterministic TSV (stable column set, %.6g values, table.edges() order),
// written atomically next to the dataset output.  The min-samples floor
// scales with the campaign's --scale (same convention as the bench suite's
// scaled_min_samples) so a reduced-scale campaign still yields a populated
// graph instead of filtering every edge.  A TCP dataset has no per-probe
// samples to weigh the graph with, so it gets a note instead of a report.
// Nonzero return is the process exit code.
int write_disjoint_report(const std::string& out_dir, const std::string& name,
                          int k, double scale) {
  meas::Dataset ds;
  if (const int rc = load(out_dir + "/" + name + ".ds", ds); rc != kExitOk) {
    return rc;
  }
  if (ds.kind == meas::MeasurementKind::kTcpTransfer) {
    std::printf("skipped %s.disjoint.tsv: %s\n", name.c_str(),
                core::kPerProbeNeedsTraceroute);
    return kExitOk;
  }
  core::BuildOptions build;
  build.min_samples =
      std::max(3, static_cast<int>(std::llround(30.0 * scale)));
  build.cancel = &g_cancel;
  const auto built = core::PathTable::build_checked(ds, build);
  if (!built.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 built.status().to_string().c_str());
    return exit_code_for(built.status());
  }
  const core::PathTable& table = built.value();
  core::DisjointOptions opt;
  opt.k = k;
  opt.cancel = &g_cancel;
  const auto swept = core::compute_disjoint_alternates(table, opt);
  if (!swept.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 swept.status().to_string().c_str());
    return exit_code_for(swept.status());
  }
  std::string tsv = core::render_disjoint_header(name, opt, build.min_samples);
  tsv += core::render_disjoint_rows(swept.value(), '\t');
  const std::string tsv_path = out_dir + "/" + name + ".disjoint.tsv";
  if (const Status wrote = write_file_atomic(tsv_path, tsv); !wrote.is_ok()) {
    return exit_with(wrote);
  }
  std::printf("wrote %s\n", tsv_path.c_str());
  return kExitOk;
}

int cmd_campaign(const Options& o) {
  meas::CampaignOptions options;
  options.output_dir = o.out_dir;
  if (o.has(&Options::datasets)) {
    options.datasets = split_csv(o.datasets);
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
  options.catalog = catalog_config(o);
  options.checkpoint_dir = o.checkpoint_dir;
  options.resume = o.resume;
  if (o.has(&Options::checkpoint_every_hours)) {
    options.checkpoint_interval = Duration::hours(o.checkpoint_every_hours);
  }
  options.disjoint_k = static_cast<int>(o.disjoint);
  options.cancel = &g_cancel;
  if (const std::size_t crash_after = test_crash_after(); crash_after > 0) {
    options.after_checkpoint = [crash_after](std::size_t writes) {
      if (writes >= crash_after) std::raise(SIGKILL);
    };
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

// The grid file is parsed and rejected (exit 2) before any work-dir I/O
// happens, so a typo never scribbles on a previous run's state.
int cmd_matrix(const Options& o) {
  const Result<std::string> text = read_file(o.grid);
  if (!text.is_ok()) {
    std::fprintf(stderr, "%s\n", text.status().to_string().c_str());
    return kExitUnreadable;
  }
  const Result<matrix::GridConfig> grid = matrix::parse_grid(text.value());
  if (!grid.is_ok()) {
    // A malformed grid is a usage error by contract, whatever code the
    // parser classified it under — and nothing has been written yet.
    std::fprintf(stderr, "%s: %s\n", o.grid.c_str(),
                 grid.status().message().c_str());
    return kExitUsage;
  }

  matrix::MatrixOptions options;
  options.grid = grid.value();
  options.work_dir = o.work_dir;
  options.workers = static_cast<int>(o.workers);
  options.threads = static_cast<int>(o.threads);
  options.resume = o.resume;
  options.cancel = &g_cancel;
  options.crash_after = test_crash_after();
  if (const long worker = test_hook("PATHSEL_MATRIX_CRASH_WORKER");
      worker >= 0 && worker < matrix::kMaxWorkers) {
    options.crash_worker = static_cast<int>(worker);
  }

  const matrix::MatrixReport report = matrix::run_matrix(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!report.status.is_ok()) return exit_with(report.status);
  std::fprintf(stderr, "matrix: %zu cells (%zu reused), report %s\n",
               report.cells_total, report.cells_reused,
               report.report_path.c_str());
  // stdout carries exactly the merged report bytes (== report.txt), so
  // `pathsel_cli matrix ... > out` and the file can be cmp'd interchangeably.
  std::fwrite(report.report.data(), 1, report.report.size(), stdout);
  return kExitOk;
}

int cmd_generate(const Options& o) {
  if (!meas::Catalog::is_dataset_name(o.dataset)) {
    std::fprintf(stderr, "unknown dataset: %s\n", o.dataset.c_str());
    return kExitUsage;
  }
  meas::Catalog catalog{catalog_config(o)};
  const meas::Dataset& ds = catalog.by_name(o.dataset);
  if (const Status saved = meas::save_dataset(o.out, ds); !saved.is_ok()) {
    return exit_with(saved);
  }
  std::printf("wrote %s: %zu hosts, %zu measurements (%zu completed)\n",
              o.out.c_str(), ds.hosts.size(), ds.measurements.size(),
              ds.completed_count());
  return kExitOk;
}

int cmd_info(const Options& o) {
  meas::Dataset ds;
  if (const int rc = load(o.in, ds); rc != kExitOk) return rc;
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
// or a --results-in file (split run).  It annotates the significance column
// itself, so a file's stored verdicts are recomputed, not trusted.  Prints
// the `pairs analyzed:` line onward; coverage is nullptr for split runs (it
// summarizes the dataset, which a results file deliberately does not carry).
int run_post_processing(core::ResultColumns& columns, int threads,
                        const core::CoverageSummary* coverage, bool csv) {
  const auto cdf = core::improvement_cdf(columns, threads);
  const Status annotated =
      core::annotate_significance(columns, 0.95, threads, &g_cancel);
  if (!annotated.is_ok()) return exit_with(annotated);
  const core::SignificanceTally tally = core::tally_significance(columns);
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

int cmd_analyze(const Options& o) {
  // The rules that depend on a flag's value, which the table cannot state.
  // Like the table's, they are usage errors caught before any I/O.
  const bool bandwidth = o.metric == kBandwidth;
  if (bandwidth && (o.has(&Options::kernel) || o.has(&Options::simd) ||
                    o.has(&Options::disjoint) ||
                    o.has(&Options::results_out))) {
    std::fprintf(stderr,
                 "--kernel, --simd, --disjoint and --results-out do not "
                 "apply to bandwidth analysis\n");
    return kExitUsage;
  }
  const auto kernel = static_cast<core::Kernel>(o.kernel);
  if (kernel == core::Kernel::kDense && !o.one_hop) {
    std::fprintf(stderr, "--kernel dense requires --one-hop\n");
    return kExitUsage;
  }

  // 0 resolves to default_thread_count() (PATHSEL_THREADS env override, else
  // hardware_concurrency); --threads 1 forces the serial path.
  const int threads = static_cast<int>(o.threads);
  core::BuildOptions build;
  build.min_samples = static_cast<int>(o.min_samples);
  build.threads = threads;
  build.cancel = &g_cancel;

  if (o.has(&Options::results_in)) {
    auto sets = core::read_result_columns(o.results_in);
    if (!sets.is_ok()) return exit_with(sets.status());
    if (sets.value().size() != 1) {
      std::fprintf(stderr,
                   "%s holds %zu column sets; analyze --results-in needs "
                   "exactly one\n",
                   o.results_in.c_str(), sets.value().size());
      return kExitDataError;
    }
    return run_post_processing(sets.value().front(), threads, nullptr, o.csv);
  }

  meas::Dataset ds;
  if (const int rc = load(o.in, ds); rc != kExitOk) return rc;

  if (bandwidth) {
    if (ds.kind != meas::MeasurementKind::kTcpTransfer) {
      std::fprintf(stderr, "bandwidth analysis needs a tcp dataset\n");
      return kExitDataError;
    }
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) return exit_with(built.status());
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
    if (o.coverage) print_coverage(core::summarize_coverage(ds, table));
    return kExitOk;
  }

  const auto metric = static_cast<core::Metric>(o.metric);
  if (o.has(&Options::disjoint)) {
    // A K beyond the graph's N-2 ceiling is a data error, found only now.
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) return exit_with(built.status());
    const core::PathTable& table = built.value();
    std::printf("path graph: %zu measured paths over %zu hosts\n",
                table.edges().size(), table.hosts().size());
    core::DisjointOptions opt;
    opt.metric = metric;
    opt.k = static_cast<int>(o.disjoint);
    opt.mode = static_cast<core::DisjointMode>(o.disjoint_mode);
    opt.threads = threads;
    opt.cancel = &g_cancel;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    if (!swept.is_ok()) return exit_with(swept.status());
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
    if (o.csv) {
      const std::string rows = core::render_disjoint_rows(results, ',');
      std::fwrite(rows.data(), 1, rows.size(), stdout);
    }
    return kExitOk;
  }

  core::AnalyzerOptions analyze;
  analyze.metric = metric;
  if (o.one_hop) analyze.max_intermediate_hosts = 1;
  analyze.threads = threads;
  analyze.cancel = &g_cancel;
  analyze.kernel = kernel;
  analyze.simd = static_cast<core::SimdMode>(o.simd);

  auto result = core::analyze_with_coverage(ds, build, analyze);
  if (!result.is_ok()) return exit_with(result.status());
  core::DegradedAnalysis& analysis = result.value();
  std::printf("path graph: %zu measured paths over %zu hosts\n",
              analysis.coverage.usable_edges, analysis.coverage.hosts);
  if (o.has(&Options::results_out)) {
    // Stop after the sweep: classify (so the file carries the verdicts) and
    // write the columns.  stdout holds only the `path graph:` line, so a
    // later --results-in run's stdout concatenates to the fused output.
    const Status annotated = core::annotate_significance(
        analysis.columns, 0.95, threads, &g_cancel);
    if (!annotated.is_ok()) return exit_with(annotated);
    const Status wrote = core::write_result_columns(
        o.results_out,
        std::span<const core::ResultColumns>{&analysis.columns, 1});
    if (!wrote.is_ok()) return exit_with(wrote);
    std::fprintf(stderr, "wrote %s\n", o.results_out.c_str());
    return kExitOk;
  }
  return run_post_processing(analysis.columns, threads,
                             o.coverage ? &analysis.coverage : nullptr, o.csv);
}

// Every file this opens — the dataset, then the trace — is opened before
// the engine creates or replays the journal directory, so a bad input never
// leaves a half-initialized journal behind.
int cmd_serve(const Options& o) {
  meas::Dataset ds;
  if (const int rc = load(o.in, ds); rc != kExitOk) return rc;

  std::ifstream trace_file;
  std::istream* trace_in = &std::cin;
  if (o.trace != "-") {
    trace_file.open(o.trace);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", o.trace.c_str());
      return kExitUnreadable;
    }
    trace_in = &trace_file;
  }

  serve::ServeOptions options;
  options.build.min_samples = static_cast<int>(o.min_samples);
  options.build.cancel = &g_cancel;
  options.threads = static_cast<int>(o.threads);
  options.queue_capacity = static_cast<std::size_t>(o.queue_cap);
  options.stale_after_ms = o.stale_after_ms;
  options.journal_dir = o.journal_dir;
  options.resume = o.resume;
  options.compact_every = static_cast<std::uint64_t>(o.compact_every);
  options.cancel = &g_cancel;
  options.max_reader_slots = static_cast<std::size_t>(o.readers);
  // The crash hook fires after the record is durable but before it mutates
  // anything: the worst reproducible instant.
  options.crash_after_appends = test_crash_after();

  auto engine = serve::ServeEngine::create(ds, options);
  if (!engine.is_ok()) return exit_with(engine.status());
  for (const std::string& note : engine.value()->recovery_log()) {
    std::fprintf(stderr, "serve: %s\n", note.c_str());
  }

  serve::TraceOptions trace_options;
  trace_options.readers = static_cast<int>(o.readers);
  const Result<serve::TraceStats> stats = serve::run_trace(
      *engine.value(), *trace_in, std::cout, std::cerr, trace_options);
  if (!stats.is_ok()) return exit_with(stats.status());
  const serve::ServeCounters counters = engine.value()->counters();
  std::fprintf(stderr,
               "serve: %zu ops, %zu queries, %zu updates accepted, "
               "%zu rejected, %llu applied, %llu shed, %llu snapshots\n",
               stats.value().lines, stats.value().queries,
               stats.value().updates, stats.value().rejected,
               static_cast<unsigned long long>(counters.updates_applied),
               static_cast<unsigned long long>(counters.updates_shed),
               static_cast<unsigned long long>(counters.snapshots_published));
  if (o.strict_updates && stats.value().rejected > 0) {
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
int cmd_version(const Options&) {
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

// Dumps the registry snapshot to stderr.  stderr keeps stdout byte-identical
// to a metrics-off run (metrics are passive).
void dump_metrics(bool json) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  if (json) {
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

// ---- The tables --------------------------------------------------------------

using O = Options;

const Flag kMetricsFlag{"metrics", &O::metrics, "table|json", 0, 0, "table"};
const Flag kDeadlineFlag{"deadline", &O::deadline, "SEC", 0.0, 1e9};

const std::vector<Command> kCommands = {
    {"generate", cmd_generate, false,
     {{"dataset", &O::dataset, "NAME"},
      {"scale", &O::scale, "S", 1e-6, 1.0},
      {"seed", &O::seed, "N"},
      {"out", &O::out, "FILE"},
      {"faults", &O::faults, "F", 0.0, 1.0},
      {"fault-seed", &O::fault_seed, "N"},
      kMetricsFlag},
     {{"dataset"}, {"out"}}},
    {"info", cmd_info, false,
     {{"in", &O::in, "FILE"}, kMetricsFlag},
     {{"in"}}},
    {"analyze", cmd_analyze, true,
     {{"in", &O::in, "FILE"},
      {"metric", &O::metric, "rtt|loss|bandwidth"},
      {"min-samples", &O::min_samples, "N", 1, 1e6},
      {"one-hop", &O::one_hop},
      {"csv", &O::csv},
      {"coverage", &O::coverage},
      {"threads", &O::threads, "N", 0, 4096},
      kDeadlineFlag,
      {"kernel", &O::kernel, "auto|dense|search"},
      {"simd", &O::simd, "auto|avx2|scalar"},
      {"disjoint", &O::disjoint, "K", 1, 1e6},
      {"disjoint-mode", &O::disjoint_mode, "link|node"},
      {"results-out", &O::results_out, "FILE"},
      {"results-in", &O::results_in, "FILE"},
      kMetricsFlag},
     {{"in", "results-in"}},
     // --results-out stops after the sweep, so post-processing flags would
     // do nothing; --results-in starts after it, so sweep-shaping flags
     // could not be honoured.
     {{"results-out", {"results-in", "csv", "coverage", "disjoint"}},
      {"results-in",
       {"in", "metric", "min-samples", "one-hop", "kernel", "simd",
        "coverage", "disjoint", "disjoint-mode"}},
      {"disjoint", {"one-hop", "kernel", "simd"}}},
     {{"disjoint-mode", {"disjoint"}}}},
    {"campaign", cmd_campaign, true,
     {{"out-dir", &O::out_dir, "DIR"},
      {"datasets", &O::datasets, "A,B,..."},
      {"scale", &O::scale, "S", 1e-6, 1.0},
      {"seed", &O::seed, "N"},
      {"faults", &O::faults, "F", 0.0, 1.0},
      {"fault-seed", &O::fault_seed, "N"},
      {"checkpoint-dir", &O::checkpoint_dir, "DIR"},
      {"resume", &O::resume},
      {"checkpoint-every-hours", &O::checkpoint_every_hours, "H", 1e-9, 1e9},
      kDeadlineFlag,
      {"disjoint", &O::disjoint, "K", 1, 1e6},
      kMetricsFlag},
     {{"out-dir"}},
     {},
     {{"resume", {"checkpoint-dir"}}}},
    {"matrix", cmd_matrix, true,
     {{"grid", &O::grid, "FILE"},
      {"work-dir", &O::work_dir, "DIR"},
      {"workers", &O::workers, "N", 0, matrix::kMaxWorkers},
      {"threads", &O::threads, "N", 1, 1e6},
      {"resume", &O::resume},
      kDeadlineFlag,
      kMetricsFlag},
     {{"grid"}, {"work-dir"}}},
    {"serve", cmd_serve, true,
     {{"in", &O::in, "FILE"},
      {"trace", &O::trace, "FILE|-"},
      {"readers", &O::readers, "N", 1, 256},
      {"queue-cap", &O::queue_cap, "N", 1, 1e9},
      {"stale-after-ms", &O::stale_after_ms, "MS", 0, 0x1p60},
      {"journal-dir", &O::journal_dir, "DIR"},
      {"resume", &O::resume},
      {"compact-every", &O::compact_every, "N", 0, 1e9},
      {"min-samples", &O::min_samples, "N", 1, 1e9},
      {"threads", &O::threads, "N", 1, 4096},
      kDeadlineFlag,
      {"strict-updates", &O::strict_updates},
      kMetricsFlag},
     {{"in"}, {"trace"}},
     {},
     {{"resume", {"journal-dir"}}}},
    {"version", cmd_version, false, {}, {}},
};

// The synopsis, generated from the tables: a required flag prints bare (the
// first of a one-of group), every other flag in brackets.
int usage() {
  std::string text = "usage:\n";
  for (const Command& cmd : kCommands) {
    std::string line = std::string{"  pathsel_cli "} + cmd.name;
    const std::size_t indent = line.size();
    for (const Flag& flag : cmd.flags) {
      std::string token = std::string{"--"} + flag.name;
      if (flag.bare != nullptr) {
        token += std::string{"[="} + flag.metavar + "]";
      } else if (flag.metavar != nullptr) {
        token += std::string{" "} + flag.metavar;
      }
      const bool required = std::any_of(
          cmd.required.begin(), cmd.required.end(),
          [&flag](const auto& group) {
            return std::string_view{group.front()} == flag.name;
          });
      if (!required) token = "[" + token + "]";
      if (line.size() + 1 + token.size() > 79) {
        text += line + "\n";
        line.assign(indent, ' ');
      }
      line += " " + token;
    }
    text += line + "\n";
  }
  text += "datasets:";
  for (const std::string& name : meas::Catalog::dataset_names()) {
    text += " " + name;
  }
  text +=
      "\n--threads defaults to the hardware thread count\n"
      "exit codes: 0 ok, 1 data error, 2 usage, 3 unreadable file,\n"
      "            4 parse error, 5 interrupted (deadline/signal)\n";
  std::fputs(text.c_str(), stderr);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string_view name = argv[1];
  if (name == "--version") name = "version";
  const auto cmd =
      std::find_if(kCommands.begin(), kCommands.end(),
                   [name](const Command& c) { return name == c.name; });
  if (cmd == kCommands.end()) {
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return usage();
  }
  Options options;
  if (!parse(*cmd, argc, argv, options)) return kExitUsage;

  // --deadline counts wall-clock seconds from here; 0 trips immediately.
  if (options.has(&Options::deadline)) {
    g_cancel.set_deadline_after_seconds(options.deadline);
  }
  const bool metrics = options.has(&Options::metrics);
  if (metrics) MetricsRegistry::global().enable();
  // The long-running commands drain cooperatively on Ctrl-C / TERM and can
  // be liveness-monitored via PATHSEL_WATCHDOG (see the header comment).
  Watchdog dog;
  if (cmd->interruptible) {
    g_cancel.arm_signal(SIGINT);
    g_cancel.arm_signal(SIGTERM);
    Watchdog::start_from_env(dog, &g_cancel);
  }
  const int rc = cmd->run(options);
  dog.stop();
  if (metrics) dump_metrics(options.metrics == kJson);
  return rc;
}
