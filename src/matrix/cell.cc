#include "matrix/cell.h"

#include <filesystem>

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
    const Status valid =
        core::validate_disjoint_k(cell.policy.k, table.hosts().size());
    if (!valid.is_ok()) return degrade(valid);
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
    std::string tsv = "# disjoint alternates: dataset=" + cell.dataset +
                      " mode=" + core::to_string(opt.mode) +
                      " k=" + std::to_string(opt.k) + " metric=" +
                      core::metric_name(cell.metric) + " min_samples=" +
                      std::to_string(summary.min_samples) + "\n";
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
  const auto tally = core::classify_significance_checked(
      analysis.columns, 0.95, ctx.threads, ctx.cancel);
  if (!tally.is_ok()) {
    return infrastructure_failure(tally.status()) ? tally.status()
                                                  : degrade(tally.status());
  }
  summary.has_sig = true;
  summary.sig_better = tally.value().better;
  summary.sig_indeterminate = tally.value().indeterminate;
  summary.sig_worse = tally.value().worse;
  const Status annotated = core::annotate_significance(
      analysis.columns, 0.95, ctx.threads, ctx.cancel);
  if (!annotated.is_ok()) return annotated;
  const std::string psrc = core::serialize_result_columns(
      std::span<const core::ResultColumns>{&analysis.columns, 1});
  return write_artifact(ctx, summary, cell_rel_dir + "/results.psrc", psrc);
}

}  // namespace

std::string serialize_cell_summary(const CellSummary& s) {
  using codec::append_line;
  using codec::Hex;
  std::string out = "pathsel-matrix-cell v" +
                    std::to_string(kCellSummaryVersion) + "\n";
  append_line(out, "grid_fp", Hex{s.grid_fp});
  append_line(out, "cell_fp", Hex{s.cell_fp});
  append_line(out, "index", s.index);
  append_line(out, "dataset", s.dataset);
  append_line(out, "fault", s.fault);
  append_line(out, "metric", s.metric);
  append_line(out, "policy", s.policy);
  append_line(out, "min_samples", s.min_samples);
  append_line(out, "seed", s.seed);
  append_line(out, "ok", s.ok ? 1 : 0);
  if (!s.ok) {
    append_line(out, "error", s.error);
  } else {
    append_line(out, "hosts", s.hosts);
    append_line(out, "measurements", s.measurements);
    append_line(out, "completed", s.completed);
    append_line(out, "usable_edges", s.usable_edges);
    append_line(out, "pairs", s.pairs);
    append_line(out, "coverage", s.coverage);
    append_line(out, "better", s.better);
    append_line(out, "has_sig", s.has_sig ? 1 : 0);
    append_line(out, "sig_better", s.sig_better);
    append_line(out, "sig_indeterminate", s.sig_indeterminate);
    append_line(out, "sig_worse", s.sig_worse);
    append_line(out, "found_full", s.found_full);
  }
  for (const CellSummary::Artifact& a : s.artifacts) {
    append_line(out, "artifact", a.rel_path, a.size, Hex{a.crc, 8});
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
  auto need = [&](std::string_view key) -> bool {
    return lines.next(line) && key_value(line, key, value);
  };

  if (!lines.next(line) ||
      line != "pathsel-matrix-cell v" + std::to_string(kCellSummaryVersion)) {
    return parse_fail("bad or missing header");
  }
  CellSummary s;
  std::uint64_t u = 0;
  if (!need("grid_fp") || !codec::parse_u64(value, s.grid_fp, 16)) {
    return parse_fail("bad grid_fp");
  }
  if (!need("cell_fp") || !codec::parse_u64(value, s.cell_fp, 16)) {
    return parse_fail("bad cell_fp");
  }
  if (!need("index") || !codec::parse_u64(value, u)) {
    return parse_fail("bad index");
  }
  s.index = static_cast<std::size_t>(u);
  if (!need("dataset")) return parse_fail("bad dataset");
  s.dataset = std::string{value};
  if (!need("fault") || !codec::parse_double(value, s.fault)) {
    return parse_fail("bad fault");
  }
  if (!need("metric")) return parse_fail("bad metric");
  s.metric = std::string{value};
  if (!need("policy")) return parse_fail("bad policy");
  s.policy = std::string{value};
  if (!need("min_samples") || !codec::parse_u64(value, u) || u > 1'000'000) {
    return parse_fail("bad min_samples");
  }
  s.min_samples = static_cast<int>(u);
  if (!need("seed") || !codec::parse_u64(value, s.seed)) {
    return parse_fail("bad seed");
  }
  if (!need("ok") || (value != "0" && value != "1")) {
    return parse_fail("bad ok flag");
  }
  s.ok = value == "1";
  if (!s.ok) {
    if (!need("error")) return parse_fail("degraded summary without error");
    s.error = std::string{value};
  } else {
    auto u64_field = [&](std::string_view key, std::size_t& out) -> bool {
      if (!need(key) || !codec::parse_u64(value, u)) return false;
      out = static_cast<std::size_t>(u);
      return true;
    };
    auto dbl_field = [&](std::string_view key, double& out) -> bool {
      return need(key) && codec::parse_double(value, out);
    };
    if (!u64_field("hosts", s.hosts)) return parse_fail("bad hosts");
    if (!u64_field("measurements", s.measurements)) {
      return parse_fail("bad measurements");
    }
    if (!u64_field("completed", s.completed)) return parse_fail("bad completed");
    if (!u64_field("usable_edges", s.usable_edges)) {
      return parse_fail("bad usable_edges");
    }
    if (!u64_field("pairs", s.pairs)) return parse_fail("bad pairs");
    if (!dbl_field("coverage", s.coverage)) return parse_fail("bad coverage");
    if (!dbl_field("better", s.better)) return parse_fail("bad better");
    if (!need("has_sig") || (value != "0" && value != "1")) {
      return parse_fail("bad has_sig");
    }
    s.has_sig = value == "1";
    if (!dbl_field("sig_better", s.sig_better)) {
      return parse_fail("bad sig_better");
    }
    if (!dbl_field("sig_indeterminate", s.sig_indeterminate)) {
      return parse_fail("bad sig_indeterminate");
    }
    if (!dbl_field("sig_worse", s.sig_worse)) return parse_fail("bad sig_worse");
    if (!dbl_field("found_full", s.found_full)) {
      return parse_fail("bad found_full");
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
