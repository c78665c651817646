// The `serve` workload: the online path-selection engine under an open-loop
// update stream with concurrent readers, then a closed-loop drain.
//
// Set-up (repeated at both ends of the run, median reported): build the
// world, collect the canonical UW3 (the catalog's default seed, full scale)
// and create a ServeEngine with a journal in a fresh directory (fsync on,
// default compaction).  The run's seed
// drives the traffic, not the served dataset: the engine's size, and with it
// the cost of a flush, would otherwise change with the seed.  Then:
//  - stream: updates arrive as a Poisson process at a fixed rate, drawn from
//    seeded (pair, RTT, lost) values.  The writer (this thread) submits every
//    due update and flushes whenever its queue is non-empty; an update's
//    visibility latency runs from the time it was due to the return of the
//    flush that published it.  Two reader threads run a closed loop of
//    query_best calls over seeded random pairs, alternating rtt and loss.
//  - drain: closed loop; units of kDrainFlushes batches of kDrainBatch
//    updates, each batch followed by flush().  wall_s is the median unit.
// The pinned snapshot must equal a batch analyze + annotate of its own table,
// byte for byte, after the stream and again at the end.  A traced run counts
// the MetricsRegistry over drain unit 0.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/alternate.h"
#include "core/confidence.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/catalog.h"
#include "serve/engine.h"

namespace perfbench {
namespace {

using namespace pathsel;

constexpr double kStreamRate = 200.0;  // updates per second
constexpr std::size_t kReaders = 2;
constexpr std::size_t kDrainBatch = 64;
constexpr std::size_t kDrainFlushes = 4;
constexpr int kSetupTrialsEachEnd = 3;
// Shares of the measuring time: the stream first, the drain after it.
constexpr double kStreamShare = 0.4;
constexpr int kThreads = 4;
constexpr int kMinSamples = 30;
constexpr std::size_t kQueriesPerSpan = 4096;
// Per-query latency histogram: 1 ns bins up to 100 us, one overflow bin.
constexpr std::size_t kQueryBins = 100'000;

struct Pair {
  topo::HostId a;
  topo::HostId b;
  double rtt_ms = 0.0;
  double loss = 0.0;
};

// Draws updates around each pair's measured mean RTT and loss rate.
class UpdateSource {
 public:
  UpdateSource(const std::vector<Pair>& pairs, std::uint64_t seed)
      : pairs_{pairs}, rng_{seed}, pick_{0, pairs.size() - 1} {}

  serve::EdgeUpdate next() {
    const Pair& p = pairs_[pick_(rng_)];
    serve::EdgeUpdate u;
    u.a = p.a;
    u.b = p.b;
    u.rtt_ms = p.rtt_ms * std::exp(jitter_(rng_));
    u.lost = std::bernoulli_distribution{std::clamp(p.loss, 0.005, 0.5)}(rng_);
    return u;
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  const std::vector<Pair>& pairs_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::size_t> pick_;
  std::normal_distribution<double> jitter_{0.0, 0.25};
};

struct StreamStats {
  double seconds = 0.0;
  std::vector<double> visible_ms;
  std::vector<double> gen_late_ms;
  std::vector<double> flush_ms;
  std::vector<double> flush_batch;
  std::vector<double> submit_us;
  double writer_busy_ms = 0.0;
  std::size_t backlog_end = 0;
  std::uint64_t queries = 0;
  std::uint64_t bad_queries = 0;
  std::vector<std::uint64_t> query_hist;  // kQueryBins + 1 bins
};

double hist_percentile(const std::vector<std::uint64_t>& hist,
                       std::uint64_t total, double p) {
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    seen += hist[i];
    if (seen >= std::max<std::uint64_t>(target, 1)) {
      return static_cast<double>(i);
    }
  }
  return static_cast<double>(hist.size() - 1);
}

// Closed-loop reader: query_best over seeded random pairs, alternating
// metrics, until `stop`.  Latencies go to a private histogram.
void reader_loop(serve::ServeEngine& engine, const std::vector<Pair>& pairs,
                 std::size_t slot, std::uint64_t seed,
                 const std::atomic<bool>& stop, std::vector<std::uint64_t>& hist,
                 std::uint64_t& queries, std::uint64_t& bad) {
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<std::size_t> pick{0, pairs.size() - 1};
  hist.assign(kQueryBins + 1, 0);
  bool loss = false;
  while (!stop.load(std::memory_order_relaxed)) {
    PB_SPAN("serve.query_best");
    for (std::size_t k = 0; k < kQueriesPerSpan; ++k) {
      const Pair& p = pairs[pick(rng)];
      loss = !loss;
      const std::uint64_t q0 = now_ns();
      const serve::BestResponse r = engine.query_best(
          loss ? core::Metric::kLoss : core::Metric::kRtt, p.a, p.b, slot);
      const std::uint64_t q1 = now_ns();
      ++hist[std::min<std::uint64_t>(q1 - q0, kQueryBins)];
      if (r.kind != serve::BestResponse::Kind::kOk &&
          r.kind != serve::BestResponse::Kind::kNoAlternate) {
        ++bad;
      }
    }
    queries += kQueriesPerSpan;
  }
}

// One open-loop stream phase at `rate` updates/s for `seconds`, with the
// readers running alongside.  Operation failures are counted in `result`.
StreamStats run_stream(serve::ServeEngine& engine,
                       const std::vector<Pair>& pairs, UpdateSource& source,
                       double rate, double seconds, std::uint64_t seed,
                       WorkloadResult& result) {
  StreamStats st;
  std::vector<double> due_s;
  std::vector<serve::EdgeUpdate> updates;
  {
    PB_SPAN("bench.inputs");
    std::exponential_distribution<double> gap{rate};
    for (double t = gap(source.rng()); t < seconds; t += gap(source.rng())) {
      due_s.push_back(t);
      updates.push_back(source.next());
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::vector<std::uint64_t>> hists(kReaders);
  std::vector<std::uint64_t> queries(kReaders, 0);
  std::vector<std::uint64_t> bad(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(reader_loop, std::ref(engine), std::cref(pairs),
                         r + 1, seed * 31 + r, std::cref(stop),
                         std::ref(hists[r]), std::ref(queries[r]),
                         std::ref(bad[r]));
  }

  const std::uint64_t start = now_ns();
  const auto due_ns = [&](std::size_t i) {
    return start + static_cast<std::uint64_t>(due_s[i] * 1e9);
  };
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t next = 0;
  std::vector<std::size_t> pending;
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= end) break;
    while (next < updates.size() && due_ns(next) <= t) {
      PB_SPAN("serve.submit");
      const std::uint64_t s0 = now_ns();
      const Status s = engine.submit(updates[next]);
      const std::uint64_t s1 = now_ns();
      st.submit_us.push_back(static_cast<double>(s1 - s0) / 1e3);
      st.writer_busy_ms += ms_between(s0, s1);
      st.gen_late_ms.push_back(ms_between(due_ns(next), s0));
      result.check(s.is_ok(), "stream update rejected: " + s.to_string());
      pending.push_back(next++);
    }
    if (!pending.empty()) {
      PB_SPAN("serve.flush");
      const std::uint64_t f0 = now_ns();
      const Status s = engine.flush();
      const std::uint64_t f1 = now_ns();
      result.check(s.is_ok(), "stream flush failed: " + s.to_string());
      st.flush_ms.push_back(ms_between(f0, f1));
      st.flush_batch.push_back(static_cast<double>(pending.size()));
      st.writer_busy_ms += ms_between(f0, f1);
      for (const std::size_t i : pending) {
        st.visible_ms.push_back(ms_between(due_ns(i), f1));
      }
      pending.clear();
      continue;
    }
    PB_SPAN("serve.writer_idle");
    const std::uint64_t wake =
        next < updates.size() ? std::min(due_ns(next), end) : end;
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake - t));
  }
  st.seconds = ms_between(start, now_ns()) / 1e3;
  for (std::size_t i = next; i < updates.size() && due_ns(i) <= end; ++i) {
    ++st.backlog_end;
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  st.query_hist.assign(kQueryBins + 1, 0);
  for (std::size_t r = 0; r < kReaders; ++r) {
    for (std::size_t i = 0; i <= kQueryBins; ++i) st.query_hist[i] += hists[r][i];
    st.queries += queries[r];
    st.bad_queries += bad[r];
  }
  result.attempted += st.queries;
  result.failed += st.bad_queries;
  if (st.bad_queries != 0) {
    result.check_failures.push_back(std::to_string(st.bad_queries) +
                                    " queries answered neither ok nor "
                                    "no-alternate");
  }
  return st;
}

// The served snapshot must equal a from-scratch batch sweep of its own table.
void check_snapshot(serve::ServeEngine& engine, WorkloadResult& result,
                    const char* when) {
  PB_SPAN("check.serve_batch");
  const serve::SnapshotBoard::Pin pin = engine.pin(0);
  std::vector<core::ResultColumns> batch;
  for (const core::Metric metric : {core::Metric::kRtt, core::Metric::kLoss}) {
    core::AnalyzerOptions analyzer;
    analyzer.metric = metric;
    analyzer.max_intermediate_hosts = 1;
    analyzer.threads = 1;
    core::ResultColumns cols = core::from_pairs(
        core::analyze_alternate_paths(pin->table, analyzer), metric);
    const Status s = core::annotate_significance(cols, 0.95, 1);
    result.check(s.is_ok(), std::string{"batch annotate "} + when);
    batch.push_back(std::move(cols));
  }
  const std::vector<core::ResultColumns> served{pin->rtt, pin->loss};
  result.check(core::serialize_result_columns(served) ==
                   core::serialize_result_columns(batch),
               std::string{"served snapshot differs from batch analysis "} +
                   when);
}

struct Setup {
  std::unique_ptr<meas::Catalog> catalog;
  std::unique_ptr<serve::ServeEngine> engine;
  std::uint64_t probes = 0;
  std::uint64_t probes_failed = 0;
  double seconds = 0.0;
};

Setup set_up(const std::string& journal_dir, WorkloadResult& result) {
  Setup s;
  const std::uint64_t start = now_ns();
  meas::CatalogConfig config;
  config.scale = 1.0;
  s.catalog = std::make_unique<meas::Catalog>(config);
  {
    PB_SPAN("meas.world");
    (void)s.catalog->world98();
  }
  const meas::Dataset* ds = nullptr;
  {
    PB_SPAN("meas.collect");
    ds = &s.catalog->uw3();
  }
  s.probes = ds->measurements.size();
  for (const meas::Measurement& m : ds->measurements) {
    if (!m.completed) ++s.probes_failed;
  }
  bool fresh = false;
  {
    PB_SPAN("bench.setup");
    fresh = fresh_directory(journal_dir);
  }
  result.check(fresh, "cannot prepare " + journal_dir);
  serve::ServeOptions so;
  so.build.min_samples = kMinSamples;
  so.threads = kThreads;
  so.journal_dir = journal_dir;
  so.max_reader_slots = kReaders + 1;
  {
    PB_SPAN("serve.create");
    Result<std::unique_ptr<serve::ServeEngine>> created =
        serve::ServeEngine::create(*ds, so);
    result.check(created.is_ok(),
                 "ServeEngine::create: " + created.status().to_string());
    if (created.is_ok()) s.engine = std::move(created.value());
  }
  s.seconds = ms_between(start, now_ns()) / 1e3;
  return s;
}

std::vector<Pair> served_pairs(serve::ServeEngine& engine) {
  const serve::SnapshotBoard::Pin pin = engine.pin(0);
  std::vector<Pair> pairs;
  for (const core::PathEdge& e : pin->table.edges()) {
    pairs.push_back({e.a, e.b, e.rtt.mean(), e.loss.mean()});
  }
  return pairs;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// Reports `update_visible_p99_ms` at fixed and doubling rates, and the
// highest rate that keeps it under 100 ms without a backlog.
WorkloadResult run_sweep(const Options& options, const std::string& journal_dir,
                         WorkloadResult result) {
  Setup s = set_up(journal_dir, result);
  if (!s.engine) return result;
  const std::vector<Pair> pairs = served_pairs(*s.engine);
  UpdateSource source{pairs, options.seed};
  double capacity = 0.0;
  for (double rate = 50.0; rate <= 6400.0; rate *= 2.0) {
    // Long enough for 1000 arrivals, so ten samples lie beyond the p99.
    const double step_s = std::max(options.seconds / 4.0, 1000.0 / rate);
    const StreamStats st = run_stream(*s.engine, pairs, source, rate, step_s,
                                      options.seed, result);
    const double p99 = percentile(st.visible_ms, 0.99);
    // A backlog is growing when more than the latency limit's worth of
    // arrivals is still unpublished at the end of the phase.
    const bool meets = p99 < 100.0 &&
                       static_cast<double>(st.backlog_end) <= rate * 0.1;
    const std::string tag = "serve.rate_" + std::to_string(static_cast<int>(rate));
    result.set(tag + ".update_visible_p99_ms", p99, "ms", st.visible_ms.size());
    result.set(tag + ".backlog_end", static_cast<double>(st.backlog_end),
               "count");
    if (!meets && rate > 400.0) break;
    if (meets) capacity = rate;
  }
  result.set("serve.capacity_per_s", capacity, "1/s");
  check_snapshot(*s.engine, result, "after the sweep");
  return result;
}

}  // namespace

WorkloadResult run_serve(const Options& options) {
  WorkloadResult result;
  result.context["readers"] = std::to_string(kReaders);
  result.context["writer_threads"] = "1";
  result.context["create_threads"] = std::to_string(kThreads);
  result.context["stream_rate_per_s"] = std::to_string(kStreamRate);
  result.context["drain_batch"] = std::to_string(kDrainBatch);
  result.context["drain_flushes_per_unit"] = std::to_string(kDrainFlushes);
  const std::string journal_dir = options.work_dir + "/serve/journal";
  if (options.sweep) return run_sweep(options, journal_dir, std::move(result));

  // Set-up, repeated at both ends of the run so that its median samples the
  // host over the whole run; the engine of the last leading trial serves.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupTrialsEachEnd; ++i) {
    s = Setup{};  // release the previous engine before building the next
    s = set_up(journal_dir, result);
    setup_s.push_back(s.seconds);
    if (!s.engine) return result;
  }
  serve::ServeEngine& engine = *s.engine;
  std::vector<Pair> pairs;
  {
    PB_SPAN("bench.inputs");
    pairs = served_pairs(engine);
  }
  UpdateSource source{pairs, options.seed};

  const StreamStats st =
      run_stream(engine, pairs, source, kStreamRate,
                 options.seconds * kStreamShare, options.seed, result);
  check_snapshot(engine, result, "after the stream");

  // Drain: closed loop until the rest of the measuring time is used up.  A
  // traced run alternates traced and untraced units for the overhead ratio.
  const double drain_budget_ms = options.seconds * (1.0 - kStreamShare) * 1e3;
  const std::uint64_t drain_start = now_ns();
  std::vector<double> unit_s;
  std::vector<double> untraced_unit_s;
  std::vector<double> drain_submit_us;
  for (std::size_t unit = 0;
       unit < 3 || ms_between(drain_start, now_ns()) < drain_budget_ms;
       ++unit) {
    std::vector<serve::EdgeUpdate> batch;
    {
      PB_SPAN("bench.inputs");
      for (std::size_t i = 0; i < kDrainBatch * kDrainFlushes; ++i) {
        batch.push_back(source.next());
      }
    }
    const bool untraced = options.trace && unit % 2 == 1;
    if (untraced) tracer().set_paused(true);
    const bool counted = options.trace && unit == 0;
    if (counted) {
      engine.sync_metrics();  // registry off: only marks the starting point
      start_counting();
    }
    const std::uint64_t u0 = now_ns();
    for (std::size_t f = 0; f < kDrainFlushes; ++f) {
      for (std::size_t i = 0; i < kDrainBatch; ++i) {
        PB_SPAN("serve.submit");
        const std::uint64_t s0 = now_ns();
        const Status status = engine.submit(batch[f * kDrainBatch + i]);
        drain_submit_us.push_back(static_cast<double>(now_ns() - s0) / 1e3);
        result.check(status.is_ok(),
                     "drain update rejected: " + status.to_string());
      }
      PB_SPAN("serve.flush");
      const Status status = engine.flush();
      result.check(status.is_ok(), "drain flush failed: " + status.to_string());
    }
    const std::uint64_t u1 = now_ns();
    const double wall = ms_between(u0, u1) / 1e3;
    if (counted) {
      engine.sync_metrics();
      result.counters = stop_counting();
    }
    if (untraced) {
      tracer().set_paused(false);
      tracer().record("bench.untraced_unit", u0, u1);
      untraced_unit_s.push_back(wall);
    } else {
      unit_s.push_back(wall);
    }
  }
  check_snapshot(engine, result, "after the drain");

  const serve::ServeCounters counters = engine.counters();
  result.check(counters.updates_rejected == 0 && counters.updates_shed == 0,
               "updates rejected or shed");
  const std::uint64_t journal_bytes = directory_bytes(journal_dir);
  const std::uint64_t probes = s.probes;
  const std::uint64_t probes_failed = s.probes_failed;
  s = Setup{};  // release the served engine before the trailing trials
  for (int i = 0; i < kSetupTrialsEachEnd; ++i) {
    setup_s.push_back(set_up(journal_dir, result).seconds);
  }
  // The serve-only latency and throughput figures: declared per-layer
  // metrics in a traced run, printed next to the end-to-end metrics in an
  // untraced one.
  const std::uint64_t queries = st.queries;
  result.metrics["serve.update_visible_p50_ms"] = {
      percentile(st.visible_ms, 0.5), "ms", st.visible_ms.size()};
  result.metrics["serve.update_visible_p99_ms"] = {
      percentile(st.visible_ms, 0.99), "ms", st.visible_ms.size()};
  result.metrics["serve.updates_per_s"] = {
      static_cast<double>(kDrainBatch * kDrainFlushes) / median(unit_s), "1/s",
      unit_s.size()};
  result.metrics["serve.query_p50_us"] = {
      hist_percentile(st.query_hist, queries, 0.5) / 1e3, "us", queries};
  result.metrics["serve.query_p99_us"] = {
      hist_percentile(st.query_hist, queries, 0.99) / 1e3, "us", queries};
  result.metrics["serve.queries_per_s"] = {
      static_cast<double>(queries) / st.seconds, "1/s", kReaders};

  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("wall_s", median(unit_s), "s", unit_s.size());
    result.set("peak_rss_mb", peak_rss_mb(false), "MiB");
    return result;
  }

  const auto totals = tracer().totals();
  const double trials = static_cast<double>(setup_s.size());
  result.set("meas.world_ms", self_ms_per_unit(totals, "meas.world", trials),
             "ms", setup_s.size());
  result.set("meas.collect_ms",
             self_ms_per_unit(totals, "meas.collect", trials), "ms",
             setup_s.size());
  result.set("meas.probes", static_cast<double>(probes), "count");
  result.set("meas.probes_failed", static_cast<double>(probes_failed),
             "count");
  result.set("meas.collect_ns_per_probe",
             self_ms_per_unit(totals, "meas.collect", trials) * 1e6 /
                 static_cast<double>(std::max<std::uint64_t>(probes, 1)),
             "ns");
  result.set("serve.create_ms",
             self_ms_per_unit(totals, "serve.create", trials), "ms",
             setup_s.size());
  std::vector<double> submit_us = st.submit_us;
  submit_us.insert(submit_us.end(), drain_submit_us.begin(),
                   drain_submit_us.end());
  result.set("serve.submit_us_p50", percentile(submit_us, 0.5), "us",
             submit_us.size());
  result.set("serve.flush_ms_p50", percentile(st.flush_ms, 0.5), "ms",
             st.flush_ms.size());
  result.set("serve.flush_ms_p99", percentile(st.flush_ms, 0.99), "ms",
             st.flush_ms.size());
  double batch_sum = 0.0;
  for (const double b : st.flush_batch) batch_sum += b;
  result.set("serve.flush_batch_mean",
             st.flush_batch.empty()
                 ? 0.0
                 : batch_sum / static_cast<double>(st.flush_batch.size()),
             "count", st.flush_batch.size());
  result.set("serve.flushes", static_cast<double>(st.flush_ms.size()), "count");
  result.set("serve.writer_busy_frac", st.writer_busy_ms / (st.seconds * 1e3),
             "frac");
  result.set("serve.gen_late_ms_p99", percentile(st.gen_late_ms, 0.99), "ms",
             st.gen_late_ms.size());
  result.set("serve.backlog_end", static_cast<double>(st.backlog_end),
             "count");
  result.set("serve.journal_bytes",
             static_cast<double>(journal_bytes), "B");
  result.set("serve.compactions", static_cast<double>(counters.compactions),
             "count");
  result.set("serve.snapshots",
             static_cast<double>(counters.snapshots_published), "count");
  if (!untraced_unit_s.empty() && !unit_s.empty()) {
    result.set("trace.overhead_frac",
               median(unit_s) / median(untraced_unit_s) - 1.0, "frac",
               unit_s.size() + untraced_unit_s.size());
  }
  return result;
}

}  // namespace perfbench
