// The `study` workload: the paper's batch pipeline over all eight Table-1
// datasets at full scale.
//
// One pass: build the two simulated worlds and collect every dataset, then
// for each serialize it to a .ds file atomically and read it back, build the
// path table (min-samples 30), run the alternate-path sweeps (one-hop and
// multi-hop RTT and loss on traceroute datasets, both bandwidth compositions
// on the TCP ones, one k=2 link-disjoint sweep on UW3), annotate
// significance, compute the confidence and figure CDFs, and finally write and
// read back the PSRC results file.  Analysis threads are pinned to 4.
//
// Every run studies the canonical Table-1 world (the catalog's default seed)
// in the catalog's order, so every run does the same work and --seed is only
// recorded: a seeded world changed the pass time and peak memory with the
// seed, and so did a seeded dataset order.  Passes repeat until the
// measuring time is used up and wall_s is the median pass.  Output checks run outside
// the timed sections: pass 0 checks everything, later passes check that they
// reproduced pass 0's bytes.  A traced run counts the MetricsRegistry over
// pass 0, with the checks left out.
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/confidence.h"
#include "core/disjoint.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/catalog.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"

namespace perfbench {
namespace {

using namespace pathsel;

constexpr int kThreads = 4;
constexpr int kMinSamples = 30;
constexpr int kSetupTrialsPerPass = 4;

// Time the benchmark spends on its own checks inside a pass, subtracted from
// the pass so wall_s counts only library work.  The registry is paused too.
class ExcludedScope {
 public:
  explicit ExcludedScope(std::uint64_t& excluded_ns)
      : excluded_ns_{excluded_ns}, start_{now_ns()} {}
  ~ExcludedScope() { excluded_ns_ += now_ns() - start_; }
  ExcludedScope(const ExcludedScope&) = delete;
  ExcludedScope& operator=(const ExcludedScope&) = delete;

 private:
  std::uint64_t& excluded_ns_;
  std::uint64_t start_;
  RegistryPause pause_;
};

// What one pass produced, kept from pass 0 so later passes can be compared.
struct PassDigest {
  std::vector<std::size_t> dataset_hashes;
  std::string results_image;
};

// Work counts of one pass (identical for every pass).
struct PassCounts {
  std::uint64_t probes = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t records_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t edges = 0;
  std::uint64_t pairs = 0;
  std::uint64_t pairs_annotated = 0;
};

std::string columns_image(const std::vector<core::ResultColumns>& sets) {
  return core::serialize_result_columns(sets);
}

// Annotates one column set and builds the curves the figures plot.
void post_process(core::ResultColumns& cols, PassCounts& counts,
                  WorkloadResult& result) {
  Status annotated = Status::ok();
  {
    PB_SPAN("core.annotate");
    annotated = core::annotate_significance(cols, 0.95, kThreads);
  }
  result.check(annotated.is_ok(), "annotate_significance: " +
                                      annotated.to_string());
  counts.pairs_annotated += cols.size();
  {
    PB_SPAN("core.confidence");
    const std::vector<core::CiPoint> ci =
        core::confidence_cdf(cols, 0.95, kThreads);
    if (ci.size() != cols.size()) result.check(false, "confidence_cdf size");
  }
  {
    PB_SPAN("core.figures");
    const stats::EmpiricalCdf diff = core::improvement_cdf(cols, kThreads);
    const stats::EmpiricalCdf ratio = core::ratio_cdf(cols, kThreads);
    const double better = core::fraction_improved(cols, kThreads);
    if (diff.size() != cols.size() || ratio.size() != cols.size() ||
        !(better >= 0.0 && better <= 1.0)) {
      result.check(false, "figure CDFs disagree with the column set");
    }
  }
}

// Runs one pass.  Returns false when an operation failed (already recorded
// in `result`).  `reference` is null on pass 0, which runs the full checks
// and fills `digest`; later passes compare against it.
bool run_pass(const std::vector<std::string>& datasets, const std::string& dir,
              const PassDigest* reference, PassDigest& digest,
              PassCounts& counts, std::uint64_t& excluded_ns,
              WorkloadResult& result) {
  meas::CatalogConfig config;
  config.scale = 1.0;
  meas::Catalog catalog{config};
  {
    PB_SPAN("meas.world");
    (void)catalog.world95();
    (void)catalog.world98();
  }

  // Every dataset is collected before any is analysed (the catalog keeps
  // them all anyway).
  std::vector<const meas::Dataset*> collected;
  for (const std::string& name : datasets) {
    {
      PB_SPAN("meas.collect");
      collected.push_back(&catalog.by_name(name));
    }
    if (catalog.spec(name).parent.empty()) {
      counts.probes += collected.back()->measurements.size();
      for (const meas::Measurement& m : collected.back()->measurements) {
        if (!m.completed) ++counts.probes_failed;
      }
    }
  }

  std::vector<core::ResultColumns> sets;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const std::string& name = datasets[d];
    const meas::Dataset& dataset = *collected[d];

    std::string bytes;
    {
      PB_SPAN("meas.write");
      std::ostringstream os;
      meas::write_dataset(os, dataset);
      bytes = std::move(os).str();
    }
    counts.records_written += dataset.measurements.size();
    counts.bytes_written += bytes.size();
    const std::string path = dir + "/" + name + ".ds";
    Status wrote = Status::ok();
    std::optional<Result<std::string>> back;
    {
      PB_SPAN("util.atomic_io");
      wrote = write_file_atomic(path, bytes);
      back.emplace(read_file(path));
    }
    result.check(wrote.is_ok() && back->is_ok(),
                 "dataset file I/O for " + name);
    if (!wrote.is_ok() || !back->is_ok()) return false;
    std::optional<meas::Dataset> loaded;
    std::string error;
    {
      PB_SPAN("meas.read");
      std::istringstream is{std::move(back->value())};
      loaded = meas::read_dataset(is, &error);
    }
    result.check(loaded.has_value(), "read_dataset " + name + ": " + error);
    if (!loaded) return false;

    {
      ExcludedScope ex{excluded_ns};
      PB_SPAN("check.dataset_roundtrip");
      const std::size_t hash = std::hash<std::string>{}(bytes);
      digest.dataset_hashes.push_back(hash);
      if (reference == nullptr) {
        std::ostringstream os;
        meas::write_dataset(os, *loaded);
        result.check(os.str() == bytes,
                     name + " read back re-serializes to different bytes");
      } else {
        result.check(
            digest.dataset_hashes.size() <= reference->dataset_hashes.size() &&
                reference->dataset_hashes[digest.dataset_hashes.size() - 1] ==
                    hash,
            name + " bytes differ from the run's first pass");
      }
    }
    bytes.clear();
    bytes.shrink_to_fit();

    core::BuildOptions build;
    build.min_samples = kMinSamples;
    build.threads = kThreads;
    std::optional<core::PathTable> table;
    {
      PB_SPAN("core.path_table");
      table.emplace(core::PathTable::build(*loaded, build));
    }
    counts.edges += table->edges().size();

    if (loaded->kind == meas::MeasurementKind::kTcpTransfer) {
      for (const core::LossComposition comp :
           {core::LossComposition::kOptimistic,
            core::LossComposition::kPessimistic}) {
        std::vector<core::BandwidthPairResult> bw;
        {
          PB_SPAN("core.bandwidth");
          bw = core::analyze_bandwidth(*table, comp);
        }
        counts.pairs += bw.size();
        PB_SPAN("core.figures");
        const stats::EmpiricalCdf diff =
            core::bandwidth_improvement_cdf(bw, kThreads);
        const stats::EmpiricalCdf ratio = core::bandwidth_ratio_cdf(bw, kThreads);
        (void)core::fraction_improved(bw, kThreads);
        if (diff.size() != bw.size() || ratio.size() != bw.size()) {
          result.check(false, "bandwidth CDFs disagree with the sweep");
        }
      }
      continue;
    }

    for (const core::Metric metric : {core::Metric::kRtt, core::Metric::kLoss}) {
      for (const int max_hops : {1, 0}) {
        core::AnalyzerOptions analyzer;
        analyzer.metric = metric;
        analyzer.max_intermediate_hosts = max_hops;
        analyzer.threads = kThreads;
        std::vector<core::PairResult> pairs;
        {
          PB_SPAN(max_hops == 1 ? "core.alternate" : "core.alternate_multi");
          pairs = core::analyze_alternate_paths(*table, analyzer);
        }
        core::ResultColumns cols;
        {
          PB_SPAN("core.columns");
          cols = core::from_pairs(pairs, metric);
        }
        counts.pairs += cols.size();
        if (reference == nullptr && max_hops == 1 && name == "UW3") {
          // The dense kernel and the per-pair search must agree bit for bit.
          ExcludedScope ex{excluded_ns};
          PB_SPAN("check.dense_vs_search");
          std::string images[2];
          int i = 0;
          for (const core::Kernel kernel :
               {core::Kernel::kDense, core::Kernel::kSearch}) {
            core::AnalyzerOptions forced = analyzer;
            forced.kernel = kernel;
            const std::vector<core::ResultColumns> one{core::from_pairs(
                core::analyze_alternate_paths(*table, forced), metric)};
            images[i++] = columns_image(one);
          }
          const std::vector<core::ResultColumns> timed{cols};
          result.check(images[0] == images[1] && images[0] == columns_image(timed),
                       "UW3 one-hop dense and search results differ");
        }
        post_process(cols, counts, result);
        sets.push_back(std::move(cols));
      }
    }
    if (name == "UW3") {
      core::DisjointOptions disjoint;
      disjoint.metric = core::Metric::kRtt;
      disjoint.k = 2;
      disjoint.mode = core::DisjointMode::kLinkDisjoint;
      disjoint.threads = kThreads;
      std::optional<Result<std::vector<core::PairDisjointResult>>> swept;
      {
        PB_SPAN("core.disjoint");
        swept.emplace(core::compute_disjoint_alternates(*table, disjoint));
      }
      result.check(swept->is_ok(), "UW3 disjoint sweep failed");
      if (swept->is_ok()) counts.pairs += swept->value().size();
    }
  }

  const std::string psrc = dir + "/results.psrc";
  Status wrote = Status::ok();
  std::optional<Result<std::vector<core::ResultColumns>>> back;
  {
    PB_SPAN("core.results_io");
    wrote = core::write_result_columns(psrc, sets);
    back.emplace(core::read_result_columns(psrc));
  }
  result.check(wrote.is_ok() && back->is_ok(), "PSRC results file I/O");
  if (!wrote.is_ok() || !back->is_ok()) return false;
  {
    ExcludedScope ex{excluded_ns};
    PB_SPAN("check.results_roundtrip");
    digest.results_image = columns_image(sets);
    result.check(columns_image(back->value()) == digest.results_image,
                 "PSRC file parses back to different columns");
    if (reference != nullptr) {
      result.check(digest.results_image == reference->results_image,
                   "PSRC results differ from the run's first pass");
    }
  }
  return true;
}

}  // namespace

WorkloadResult run_study(const Options& options) {
  WorkloadResult result;
  result.context["analysis_threads"] = std::to_string(kThreads);
  result.context["min_samples"] = std::to_string(kMinSamples);
  result.context["scale"] = "1.0";
  const std::string dir = options.work_dir + "/study";
  const std::vector<std::string> datasets = meas::Catalog::dataset_names();

  // Set-up: the output directory and the simulated Internet a study runs
  // on (both worlds: topology generation plus IGP/BGP tables).  It is
  // brought up a few times before every pass, so that its median samples
  // the host over the whole run, not one moment of it.  Every pass builds
  // its own worlds again, because a Catalog caches the datasets it
  // collected.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    {
      PB_SPAN("bench.cleanup");  // the previous pass's files, not timed
      result.check(fresh_directory(dir), "cannot prepare " + dir);
    }
    for (int i = 0; i < kSetupTrialsPerPass; ++i) {
      PB_SPAN("bench.setup");
      const std::uint64_t start = now_ns();
      const bool ok = fresh_directory(dir);
      meas::Catalog catalog{meas::CatalogConfig{}};
      (void)catalog.world95();
      (void)catalog.world98();
      setup_s.push_back(ms_between(start, now_ns()) / 1e3);
      result.check(ok, "cannot prepare " + dir);
    }
  };

  const double budget_ms = options.seconds * 1e3;
  const std::uint64_t run_start = now_ns();
  std::vector<double> wall_s;
  std::vector<double> untraced_wall_s;
  PassDigest reference;
  PassCounts counts;
  // The high-water mark of one study (set-up and pass 0, checks included).
  // Later passes in the same process only add allocator fragmentation, which
  // varies from run to run and which a user running the study once never
  // sees.
  double study_rss_mb = 0.0;
  int traced_passes = 0;
  for (int pass = 0;; ++pass) {
    set_up();
    // A traced run ends with one untraced pass: the tracing overhead is the
    // traced passes' median against it.
    const bool untraced_pass =
        options.trace && pass > 0 &&
        ms_between(run_start, now_ns()) +
                (wall_s.empty() ? 0.0 : median(wall_s) * 1e3) >=
            budget_ms;
    if (untraced_pass) tracer().set_paused(true);
    const bool counted = options.trace && pass == 0;
    if (counted) start_counting();
    PassDigest digest;
    PassCounts pass_counts;
    std::uint64_t excluded_ns = 0;
    const std::uint64_t start = now_ns();
    const bool ok = run_pass(datasets, dir, pass == 0 ? nullptr : &reference,
                             digest, pass_counts, excluded_ns, result);
    const double wall =
        static_cast<double>(now_ns() - start - excluded_ns) / 1e9;
    if (counted) result.counters = stop_counting();
    if (!ok) break;
    if (pass == 0) {
      reference = std::move(digest);
      counts = pass_counts;
      study_rss_mb = peak_rss_mb(false);
    }
    if (untraced_pass) {
      tracer().set_paused(false);
      tracer().record("bench.untraced_pass", start, now_ns());
      untraced_wall_s.push_back(wall);
      break;
    }
    wall_s.push_back(wall);
    ++traced_passes;
    const double elapsed_ms = ms_between(run_start, now_ns());
    if (!options.trace && elapsed_ms + median(wall_s) * 1e3 * 0.5 >= budget_ms) {
      break;
    }
  }

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("wall_s", median(wall_s), "s", wall_s.size());
    result.set("peak_rss_mb", study_rss_mb, "MiB");
    return result;
  }

  // Per-layer metrics: self time per traced pass, and exact work counts.
  const auto totals = tracer().totals();
  const auto per_pass = [&](const char* span) {
    return self_ms_per_unit(totals, span, traced_passes);
  };
  for (const char* span :
       {"meas.world", "meas.collect", "meas.write", "meas.read",
        "util.atomic_io", "core.path_table", "core.alternate",
        "core.alternate_multi", "core.bandwidth", "core.disjoint",
        "core.annotate", "core.confidence", "core.figures",
        "core.results_io"}) {
    result.set(std::string{span} + "_ms", per_pass(span), "ms", traced_passes);
  }
  const auto ns_per = [&](const char* span, std::uint64_t items) {
    return items == 0 ? 0.0 : per_pass(span) * 1e6 / static_cast<double>(items);
  };
  result.set("meas.collect_ns_per_probe", ns_per("meas.collect", counts.probes),
             "ns");
  result.set("meas.write_ns_per_record",
             ns_per("meas.write", counts.records_written), "ns");
  result.set("meas.read_ns_per_record",
             ns_per("meas.read", counts.records_written), "ns");
  result.set("core.annotate_ns_per_pair",
             ns_per("core.annotate", counts.pairs_annotated), "ns");
  result.set("meas.probes", static_cast<double>(counts.probes), "count");
  result.set("meas.probes_failed", static_cast<double>(counts.probes_failed),
             "count");
  result.set("meas.write_bytes", static_cast<double>(counts.bytes_written),
             "B");
  result.set("core.edges", static_cast<double>(counts.edges), "count");
  result.set("core.pairs", static_cast<double>(counts.pairs), "count");
  if (!untraced_wall_s.empty() && !wall_s.empty()) {
    result.set("trace.overhead_frac",
               median(wall_s) / untraced_wall_s.front() - 1.0, "frac",
               wall_s.size());
  }
  return result;
}

}  // namespace perfbench
