#include "matrix/cell.h"

#include <filesystem>
#include <type_traits>
#include <utility>

#include "core/confidence.h"
#include "core/coverage.h"
#include "core/disjoint.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "matrix/queue.h"
#include "meas/campaign.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "util/codec.h"
#include "util/metrics.h"

namespace pathsel::matrix {

namespace {

Status parse_fail(const std::string& what) {
  return Status::error(ErrorCode::kParseError, "cell summary: " + what);
}

// Splits "key value" on the first space; the value may itself hold spaces.
bool key_value(std::string_view line, std::string_view key,
               std::string_view& value) {
  if (line.size() < key.size() + 1 || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ') {
    return false;
  }
  value = line.substr(key.size() + 1);
  return true;
}

// Identity of a cell's collection: everything that shapes the dataset bytes
// (dataset name, seed, scale, fault intensity) folded with the grid
// fingerprint.  Cells sharing the identity share one collection; an edited
// grid changes the fold and forces a fresh one (satellite contract: stale
// state is discarded, never merged).
std::uint64_t dataset_key(const CellContext& ctx, const CellSpec& cell) {
  const std::string params = cell.dataset + "|" + std::to_string(cell.seed) +
                             "|" + codec::to_text(ctx.grid->scale) + "|" +
                             codec::to_text(cell.fault);
  return meas::fold_fingerprint(ctx.grid_fp, crc32(params));
}

// Is infrastructure (abort the worker) as opposed to data-shaped (degrade
// the cell)?
bool infrastructure_failure(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kIoError:
    case ErrorCode::kParseError:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
      return true;
    default:
      return false;
  }
}

// Ensures the cell's dataset exists under datasets/<key>: reuses a finished
// collection, or claims the per-dataset lock and collects it with
// checkpoint/resume.  `busy` is set when another live worker holds the
// collection right now.
Status ensure_dataset(const CellContext& ctx, const CellSpec& cell,
                      std::string& ds_path, bool& busy) {
  busy = false;
  const std::uint64_t key = dataset_key(ctx, cell);
  const std::string dir =
      datasets_dir(ctx.work_dir) + "/" + codec::to_text(codec::Hex{key});
  const std::string done_path = dir + "/DONE";
  ds_path = dir + "/" + cell.dataset + ".ds";
  std::error_code ec;
  if (std::filesystem::exists(done_path, ec)) return Status::ok();

  Result<FileLock> lock = FileLock::try_acquire(dir + ".lock");
  if (!lock.is_ok()) return lock.status();
  if (!lock.value().held()) {
    busy = true;
    return Status::ok();
  }
  // Re-check under the lock: the previous holder may have just finished.
  if (std::filesystem::exists(done_path, ec)) return Status::ok();

  meas::CampaignOptions options;
  options.datasets = {cell.dataset};
  options.output_dir = dir;
  options.checkpoint_dir = dir + "/ckpt";
  options.resume = true;  // a reclaimed cell continues the dead worker's run
  options.catalog.seed = cell.seed;
  options.catalog.scale = ctx.grid->scale;
  options.catalog.fault_intensity = cell.fault;
  options.catalog.fault_seed = cell.seed;
  options.extra_fingerprint = key;
  options.cancel = ctx.cancel;
  options.threads = ctx.threads;
  options.after_checkpoint = ctx.after_checkpoint;

  const meas::CampaignReport report = meas::run_campaign(options);
  if (ctx.note) {
    for (const std::string& note : report.notes) {
      ctx.note("cell " + std::to_string(cell.index) + ": " + note);
    }
    for (const std::string& name : report.resumed) {
      ctx.note("cell " + std::to_string(cell.index) + ": dataset " + name +
               " resumed from checkpoint");
    }
  }
  if (!report.status.is_ok()) return report.status;
  MetricsRegistry::global().count("matrix.datasets.collected");
  return write_file_atomic(done_path,
                           codec::to_text(codec::Hex{key}) + "\n");
}

Status write_artifact(const CellContext& ctx, CellSummary& summary,
                      const std::string& rel_path, const std::string& bytes) {
  const Status wrote = write_file_atomic(ctx.work_dir + "/" + rel_path, bytes);
  if (!wrote.is_ok()) return wrote;
  CellSummary::Artifact artifact;
  artifact.rel_path = rel_path;
  artifact.size = bytes.size();
  artifact.crc = crc32(bytes);
  summary.artifacts.push_back(std::move(artifact));
  return Status::ok();
}

// The analysis half of a cell.  Data-shaped failures mark the summary
// degraded and return ok; infrastructure failures propagate.
Status analyze_cell(const CellContext& ctx, const CellSpec& cell,
                    const meas::Dataset& ds, const std::string& cell_rel_dir,
                    CellSummary& summary) {
  auto degrade = [&summary](const Status& status) {
    summary.ok = false;
    summary.error = status.to_string();
    MetricsRegistry::global().count("matrix.cells.degraded");
    return Status::ok();
  };

  core::BuildOptions build;
  build.min_samples = summary.min_samples;
  build.threads = ctx.threads;
  build.cancel = ctx.cancel;

  if (cell.policy.kind == PolicyKind::kDisjoint) {
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) {
      return infrastructure_failure(built.status()) ? built.status()
                                                    : degrade(built.status());
    }
    const core::PathTable& table = built.value();
    const core::CoverageSummary cov = core::summarize_coverage(ds, table);
    summary.hosts = cov.hosts;
    summary.usable_edges = cov.usable_edges;
    summary.coverage = cov.coverage();
    core::DisjointOptions opt;
    opt.metric = cell.metric;
    opt.k = cell.policy.k;
    opt.threads = ctx.threads;
    opt.cancel = ctx.cancel;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    if (!swept.is_ok()) {
      return infrastructure_failure(swept.status()) ? swept.status()
                                                    : degrade(swept.status());
    }
    const std::vector<core::PairDisjointResult>& results = swept.value();
    summary.pairs = results.size();
    std::size_t beats = 0;
    std::size_t full = 0;
    for (const core::PairDisjointResult& r : results) {
      if (!r.paths.empty() && r.paths.front().value < r.default_value) ++beats;
      if (r.found_k() == opt.k) ++full;
    }
    const double n = results.empty() ? 1.0 : static_cast<double>(results.size());
    summary.better = static_cast<double>(beats) / n;
    summary.found_full = static_cast<double>(full) / n;
    std::string tsv =
        core::render_disjoint_header(cell.dataset, opt, summary.min_samples);
    tsv += core::render_disjoint_rows(results, '\t');
    return write_artifact(ctx, summary, cell_rel_dir + "/disjoint.tsv", tsv);
  }

  core::AnalyzerOptions analyze;
  analyze.metric = cell.metric;
  if (cell.policy.kind == PolicyKind::kOneHop) {
    analyze.max_intermediate_hosts = 1;
    analyze.kernel = cell.policy.kernel;
  }
  analyze.threads = ctx.threads;
  analyze.cancel = ctx.cancel;
  auto result = core::analyze_with_coverage(ds, build, analyze);
  if (!result.is_ok()) {
    return infrastructure_failure(result.status()) ? result.status()
                                                   : degrade(result.status());
  }
  core::DegradedAnalysis& analysis = result.value();
  summary.hosts = analysis.coverage.hosts;
  summary.usable_edges = analysis.coverage.usable_edges;
  summary.coverage = analysis.coverage.coverage();
  summary.pairs = analysis.columns.size();
  const auto cdf = core::improvement_cdf(analysis.columns, ctx.threads);
  summary.better = cdf.fraction_above(0.0);
  const Status annotated = core::annotate_significance(
      analysis.columns, 0.95, ctx.threads, ctx.cancel);
  if (!annotated.is_ok()) return annotated;
  const core::SignificanceTally tally =
      core::tally_significance(analysis.columns);
  summary.has_sig = true;
  summary.sig_better = tally.better;
  summary.sig_indeterminate = tally.indeterminate;
  summary.sig_worse = tally.worse;
  const std::string psrc = core::serialize_result_columns(
      std::span<const core::ResultColumns>{&analysis.columns, 1});
  return write_artifact(ctx, summary, cell_rel_dir + "/results.psrc", psrc);
}

// Which summaries carry a field: all, or only degraded (ok=0) or ok ones.
// The ok flag comes before every field that depends on it.
enum class Carried { kAlways, kIfDegraded, kIfOk };
using enum Carried;

// One summary line: its key, how the writer prints the member and the
// reader parses it back, and the rejection text when the line is missing
// or malformed ("bad <key>" unless given).  The text follows the member's
// type: fingerprints in hex, flags as 0/1, min_samples (the one int) in
// the grid's [0, 1000000].
struct SummaryField {
  std::string_view key;
  Carried carried;
  void (*write)(std::string& out, std::string_view key, const CellSummary&);
  bool (*read)(std::string_view value, CellSummary&);
  const char* rejection;

  [[nodiscard]] bool carried_by(const CellSummary& s) const {
    return carried == kAlways || (carried == kIfOk) == s.ok;
  }
};

template <auto Member, int kBase = 10>
constexpr SummaryField field(std::string_view key,
                             Carried carried = kAlways,
                             const char* rejection = nullptr) {
  using T =
      std::remove_cvref_t<decltype(std::declval<CellSummary&>().*Member)>;
  return {
      key, carried,
      [](std::string& out, std::string_view k, const CellSummary& s) {
        const T& v = s.*Member;
        if constexpr (kBase == 16) {
          codec::append_line(out, k, codec::Hex{v});
        } else if constexpr (std::is_same_v<T, bool>) {
          codec::append_line(out, k, v ? 1 : 0);
        } else {
          codec::append_line(out, k, v);
        }
      },
      [](std::string_view value, CellSummary& s) {
        T& v = s.*Member;
        if constexpr (std::is_same_v<T, std::string>) {
          v = std::string{value};
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          return codec::parse_double(value, v);
        } else if constexpr (std::is_same_v<T, bool>) {
          v = value == "1";
          return value == "0" || value == "1";
        } else {
          std::uint64_t u = 0;
          if (!codec::parse_u64(value, u, kBase)) return false;
          if (std::is_same_v<T, int> && u > 1'000'000) return false;
          v = static_cast<T>(u);
          return true;
        }
      },
      rejection};
}

// Every summary field, in file order (the artifact lines follow).
constexpr SummaryField kSummaryFields[] = {
    field<&CellSummary::grid_fp, 16>("grid_fp"),
    field<&CellSummary::cell_fp, 16>("cell_fp"),
    field<&CellSummary::index>("index"),
    field<&CellSummary::dataset>("dataset"),
    field<&CellSummary::fault>("fault"),
    field<&CellSummary::metric>("metric"),
    field<&CellSummary::policy>("policy"),
    field<&CellSummary::min_samples>("min_samples"),
    field<&CellSummary::seed>("seed"),
    field<&CellSummary::ok>("ok", kAlways, "bad ok flag"),
    field<&CellSummary::error>("error", kIfDegraded,
                               "degraded summary without error"),
    field<&CellSummary::hosts>("hosts", kIfOk),
    field<&CellSummary::measurements>("measurements", kIfOk),
    field<&CellSummary::completed>("completed", kIfOk),
    field<&CellSummary::usable_edges>("usable_edges", kIfOk),
    field<&CellSummary::pairs>("pairs", kIfOk),
    field<&CellSummary::coverage>("coverage", kIfOk),
    field<&CellSummary::better>("better", kIfOk),
    field<&CellSummary::has_sig>("has_sig", kIfOk),
    field<&CellSummary::sig_better>("sig_better", kIfOk),
    field<&CellSummary::sig_indeterminate>("sig_indeterminate", kIfOk),
    field<&CellSummary::sig_worse>("sig_worse", kIfOk),
    field<&CellSummary::found_full>("found_full", kIfOk),
};

}  // namespace

std::string serialize_cell_summary(const CellSummary& s) {
  std::string out = "pathsel-matrix-cell v" +
                    std::to_string(kCellSummaryVersion) + "\n";
  for (const SummaryField& f : kSummaryFields) {
    if (f.carried_by(s)) f.write(out, f.key, s);
  }
  for (const CellSummary::Artifact& a : s.artifacts) {
    codec::append_line(out, "artifact", a.rel_path, a.size,
                       codec::Hex{a.crc, 8});
  }
  codec::seal_text(out, codec::CrcRadix::kHex);
  return out;
}

Result<CellSummary> parse_cell_summary(std::string_view text) {
  // A torn or tampered file never reaches the field parser.
  const std::optional<std::string_view> payload =
      codec::unseal_text(text, codec::CrcRadix::kHex);
  if (!payload.has_value()) {
    return parse_fail("missing, malformed or mismatched crc line (torn or "
                      "corrupt summary)");
  }

  // Every field is read in the exact order serialize_cell_summary writes it.
  codec::Lines lines{*payload};
  std::string_view line;
  std::string_view value;
  if (!lines.next(line) ||
      line != "pathsel-matrix-cell v" + std::to_string(kCellSummaryVersion)) {
    return parse_fail("bad or missing header");
  }
  CellSummary s;
  for (const SummaryField& f : kSummaryFields) {
    if (!f.carried_by(s)) continue;
    if (!lines.next(line) || !key_value(line, f.key, value) ||
        !f.read(value, s)) {
      return parse_fail(f.rejection != nullptr ? f.rejection
                                               : "bad " + std::string{f.key});
    }
  }

  // Only artifact lines may follow the fields.
  while (lines.next(line)) {
    if (!key_value(line, "artifact", value)) {
      return parse_fail("trailing garbage after fields");
    }
    // `artifact <rel_path> <size> <crc>`: rel_path may not hold spaces (the
    // engine only writes fixed names), so split from the right.
    const std::string_view rest = value;
    const std::size_t crc_sep = rest.rfind(' ');
    if (crc_sep == std::string_view::npos) return parse_fail("bad artifact");
    const std::size_t size_sep = rest.rfind(' ', crc_sep - 1);
    if (size_sep == std::string_view::npos || size_sep == 0) {
      return parse_fail("bad artifact");
    }
    CellSummary::Artifact a;
    a.rel_path = std::string{rest.substr(0, size_sep)};
    std::uint64_t crc_v = 0;
    if (!codec::parse_u64(rest.substr(size_sep + 1, crc_sep - size_sep - 1),
                          a.size) ||
        !codec::parse_u64(rest.substr(crc_sep + 1), crc_v, 16) ||
        crc_v > 0xFFFFFFFFULL) {
      return parse_fail("bad artifact");
    }
    a.crc = static_cast<std::uint32_t>(crc_v);
    s.artifacts.push_back(std::move(a));
  }
  return s;
}

Result<CellOutcome> run_cell(const CellContext& ctx, const CellSpec& cell) {
  const ScopedTimer timer{"matrix.cell"};
  const std::uint64_t cell_fp = cell_fingerprint(ctx.grid_fp, cell);

  std::string ds_path;
  bool busy = false;
  {
    const ScopedTimer collect_timer{"matrix.collect"};
    const Status ensured = ensure_dataset(ctx, cell, ds_path, busy);
    if (!ensured.is_ok()) return ensured;
  }
  if (busy) return CellOutcome::kDatasetBusy;

  Result<meas::Dataset> ds = meas::load_dataset(ds_path);
  if (!ds.is_ok()) return ds.status();

  CellSummary summary;
  summary.grid_fp = ctx.grid_fp;
  summary.cell_fp = cell_fp;
  summary.index = cell.index;
  summary.dataset = cell.dataset;
  summary.fault = cell.fault;
  summary.metric = core::metric_name(cell.metric);
  summary.policy = cell.policy.label();
  summary.min_samples = effective_min_samples(*ctx.grid, cell);
  summary.seed = cell.seed;
  summary.measurements = ds.value().measurements.size();
  summary.completed = ds.value().completed_count();

  const std::string cell_dir = cell_work_dir(ctx.work_dir, cell.index, cell_fp);
  const Status made = ensure_directory(cell_dir);
  if (!made.is_ok()) return made;
  // Artifact paths are recorded relative to the work dir so a work dir can
  // be archived or moved wholesale.
  const std::string cell_rel_dir =
      cell_dir.substr(ctx.work_dir.size() + 1);

  {
    const ScopedTimer analyze_timer{"matrix.analyze"};
    const Status analyzed =
        analyze_cell(ctx, cell, ds.value(), cell_rel_dir, summary);
    if (!analyzed.is_ok()) return analyzed;
  }

  const Status published = write_file_atomic(
      cell_summary_path(ctx.work_dir, cell.index),
      serialize_cell_summary(summary));
  if (!published.is_ok()) return published;
  MetricsRegistry::global().count("matrix.cells.run");
  MetricsRegistry::global().count("matrix.pairs", summary.pairs);
  return CellOutcome::kRan;
}

}  // namespace pathsel::matrix
