#include "serve/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <map>
#include <utility>

#include "core/confidence.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"
#include "util/expect.h"
#include "util/metrics.h"

namespace pathsel::serve {

namespace {

[[nodiscard]] bool file_exists(const std::string& path) noexcept {
  return ::access(path.c_str(), F_OK) == 0;
}

// Folds one update into its edge's running statistics: the probe counts
// towards loss, and towards RTT only when it came back.  Journal replay and
// live apply share it, so a recovered edge matches the one that crashed.
void fold_update(core::PathEdge& edge, const EdgeUpdate& update) {
  edge.loss.add(update.lost ? 1.0 : 0.0);
  if (!update.lost) edge.rtt.add(update.rtt_ms);
  ++edge.invocations;
}

}  // namespace

std::uint64_t ServeEngine::compute_fingerprint(const meas::Dataset& dataset,
                                               int min_samples) {
  std::uint32_t crc = 0;
  meas::write_dataset_chunks(dataset, [&crc](std::string_view chunk) {
    crc = crc32(chunk, crc);
  });
  return (static_cast<std::uint64_t>(crc) << 32) |
         static_cast<std::uint32_t>(min_samples);
}

ServeEngine::ServeEngine(std::size_t reader_slots)
    : reader_slots_{reader_slots}, board_{reader_slots} {}

ServeEngine::~ServeEngine() = default;

Result<std::unique_ptr<ServeEngine>> ServeEngine::create(
    const meas::Dataset& dataset, const ServeOptions& options) {
  PATHSEL_EXPECT(options.max_reader_slots > 0,
                 "serve engine needs at least one reader slot");
  std::unique_ptr<ServeEngine> engine{new ServeEngine{options.max_reader_slots}};
  if (Status s = engine->init(dataset, options); !s.is_ok()) return s;
  return engine;
}

Status ServeEngine::init(const meas::Dataset& dataset,
                         const ServeOptions& options) {
  options_ = options;
  fingerprint_ = compute_fingerprint(dataset, options.build.min_samples);

  Result<core::PathTable> table =
      core::PathTable::build_checked(dataset, options.build);
  if (!table.is_ok()) return table.status();
  table_ = std::move(table.value());
  for (const topo::HostId h : table_.hosts()) known_hosts_.insert(h.value());

  if (!options_.journal_dir.empty()) {
    if (Status s = ensure_directory(options_.journal_dir); !s.is_ok()) return s;
    const Status s = options_.resume ? recover_journal() : start_fresh_journal();
    if (!s.is_ok()) return s;
  }

  // The weight matrices and initial sweeps run AFTER replay, so the first
  // snapshot already reflects every journaled update.
  w_rtt_ = core::build_weight_matrix(table_, core::Metric::kRtt);
  w_loss_ = core::build_weight_matrix(table_, core::Metric::kLoss);
  for (const core::Metric metric : {core::Metric::kRtt, core::Metric::kLoss}) {
    core::AnalyzerOptions analyzer;
    analyzer.metric = metric;
    analyzer.max_intermediate_hosts = 1;
    analyzer.threads = options_.threads;
    analyzer.cancel = options_.cancel;
    Result<std::vector<core::PairResult>> pairs =
        core::analyze_alternate_paths_checked(table_, analyzer);
    if (!pairs.is_ok()) return pairs.status();
    core::ResultColumns cols = core::from_pairs(pairs.value(), metric);
    if (Status s = core::annotate_significance(cols, options_.confidence,
                                               options_.threads,
                                               options_.cancel);
        !s.is_ok()) {
      return s;
    }
    (metric == core::Metric::kRtt ? cols_rtt_ : cols_loss_) = std::move(cols);
  }
  PATHSEL_EXPECT(cols_rtt_.src == cols_loss_.src &&
                     cols_rtt_.dst == cols_loss_.dst,
                 "rtt and loss sweeps disagree on the served pair set");

  auto index = std::make_shared<RowIndex>();
  index->reserve(cols_rtt_.size());
  row_hosts_.reserve(cols_rtt_.size());
  host_rows_.assign(table_.hosts().size(), {});
  for (std::size_t i = 0; i < cols_rtt_.size(); ++i) {
    (*index)[row_key(cols_rtt_.src[i], cols_rtt_.dst[i])] = i;
    const std::size_t ia = table_.host_index(topo::HostId{cols_rtt_.src[i]});
    const std::size_t ib = table_.host_index(topo::HostId{cols_rtt_.dst[i]});
    row_hosts_.emplace_back(static_cast<std::uint32_t>(ia),
                            static_cast<std::uint32_t>(ib));
    host_rows_[ia].push_back(i);
    host_rows_[ib].push_back(i);
  }
  row_index_ = std::move(index);

  publish_snapshot();
  return Status::ok();
}

std::string ServeEngine::journal_path(std::uint64_t generation) const {
  return options_.journal_dir + "/journal." + std::to_string(generation % 2);
}

std::string ServeEngine::state_path() const {
  return options_.journal_dir + "/state";
}

Status ServeEngine::start_fresh_journal() {
  generation_ = 0;
  last_seq_ = 0;
  if (Status s = write_file_atomic(
          journal_path(0), serialize_journal_header(fingerprint_, 0, 1));
      !s.is_ok()) {
    return s;
  }
  ::unlink(journal_path(1).c_str());  // stale alternate generation, if any
  ::unlink(state_path().c_str());
  return writer_.open(journal_path(0), kJournalHeaderBytes);
}

Status ServeEngine::recover_journal() {
  const ScopedTimer timer{"core.serve.replay"};
  last_seq_ = 0;
  if (file_exists(state_path())) {
    Result<std::string> bytes = read_file(state_path());
    if (!bytes.is_ok()) return bytes.status();
    Result<ServeStateImage> image =
        parse_serve_state(bytes.value(), fingerprint_);
    if (!image.is_ok()) return image.status();
    if (Status s = restore_serve_state(image.value(), table_); !s.is_ok()) {
      return s;
    }
    last_seq_ = image.value().seq;
    recovery_log_.push_back("restored state snapshot at seq " +
                            std::to_string(last_seq_));
  } else {
    recovery_log_.push_back("no state snapshot; replaying from the base dataset");
  }

  // Both generation files may hold records (the previous generation survives
  // until the compaction after next overwrites it); merge and dedupe by seq.
  std::map<std::uint64_t, EdgeUpdate> merged;
  bool have_active = false;
  std::uint64_t active_generation = 0;
  std::size_t active_valid_bytes = 0;
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path =
        options_.journal_dir + "/journal." + std::to_string(slot);
    if (!file_exists(path)) continue;
    Result<std::string> bytes = read_file(path);
    if (!bytes.is_ok()) return bytes.status();
    const JournalScan scan = scan_journal(bytes.value(), fingerprint_);
    if (!scan.usable) {
      // A present-but-unusable journal is a configuration error (foreign
      // dataset, newer format) or corruption beyond a torn tail.  Refusing
      // to start beats silently serving from the wrong history.
      return Status::error(ErrorCode::kParseError,
                           "journal " + path + " is unusable: " +
                               scan.reject_reason);
    }
    if (scan.truncated) {
      // Expected crash wear: cut the torn tail off so appends resume from a
      // clean prefix.  The lost suffix was never acknowledged as applied.
      if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
        return Status::error(ErrorCode::kIoError,
                             "cannot truncate torn journal tail of " + path);
      }
      counters_.journal_truncations.fetch_add(1, std::memory_order_relaxed);
      recovery_log_.push_back("truncated torn tail of " + path + " at byte " +
                              std::to_string(scan.valid_bytes) + ": " +
                              scan.truncation_reason);
    }
    for (const JournalRecord& r : scan.records) merged[r.seq] = r.update;
    if (!have_active || scan.generation > active_generation) {
      have_active = true;
      active_generation = scan.generation;
      active_valid_bytes = scan.valid_bytes;
    }
  }

  std::uint64_t replayed = 0;
  std::uint64_t expected = last_seq_ + 1;
  for (const auto& [seq, update] : merged) {
    if (seq <= last_seq_) continue;  // already folded into the state snapshot
    if (seq != expected) {
      return Status::error(
          ErrorCode::kParseError,
          "journal gap: expected seq " + std::to_string(expected) +
              ", found " + std::to_string(seq));
    }
    core::PathEdge* e = table_.find_mutable(update.a, update.b);
    if (e == nullptr) {
      return Status::error(
          ErrorCode::kParseError,
          "journal record " + std::to_string(seq) + " touches unmeasured pair (" +
              std::to_string(update.a.value()) + ", " +
              std::to_string(update.b.value()) + ")");
    }
    fold_update(*e, update);
    ++expected;
    ++replayed;
  }
  last_seq_ = expected - 1;
  counters_.updates_replayed.fetch_add(replayed, std::memory_order_relaxed);
  recovery_log_.push_back("replayed " + std::to_string(replayed) +
                          " journaled updates; resuming at seq " +
                          std::to_string(last_seq_));

  if (!have_active) return start_fresh_journal();
  generation_ = active_generation;
  last_compact_seq_ = last_seq_;
  return writer_.open(journal_path(generation_), active_valid_bytes);
}

Status ServeEngine::submit(const EdgeUpdate& update) {
  auto reject = [&](const std::string& why) {
    counters_.updates_rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::error(ErrorCode::kInvalidArgument,
                         "update rejected: " + why);
  };
  if (!known_hosts_.contains(update.a.value()) ||
      !known_hosts_.contains(update.b.value())) {
    return reject("host " +
                  std::to_string(known_hosts_.contains(update.a.value())
                                     ? update.b.value()
                                     : update.a.value()) +
                  " is not in the served dataset");
  }
  if (update.a == update.b) return reject("a path needs two distinct hosts");
  if (table_.find(update.a, update.b) == nullptr) {
    return reject("pair (" + std::to_string(update.a.value()) + ", " +
                  std::to_string(update.b.value()) +
                  ") is unmeasured or filtered out");
  }
  if (!std::isfinite(update.rtt_ms) || update.rtt_ms < 0.0) {
    return reject("rtt must be a finite non-negative number");
  }

  EdgeUpdate normalized = update;
  if (normalized.b < normalized.a) std::swap(normalized.a, normalized.b);
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    queue_.push_back(normalized);
    while (queue_.size() > options_.queue_capacity) {
      queue_.pop_front();  // shed the OLDEST: freshest measurements win
      counters_.updates_shed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  counters_.updates_accepted.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Status ServeEngine::apply_record(const EdgeUpdate& update) {
  const std::uint64_t seq = last_seq_ + 1;
  if (writer_.is_open()) {
    // Write-ahead: the record must be durable before any in-memory effect.
    if (Status s = writer_.append({seq, update}); !s.is_ok()) return s;
    const std::uint64_t appends =
        counters_.journal_appends.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.crash_after_appends != 0 &&
        appends == options_.crash_after_appends) {
      std::raise(SIGKILL);  // test hook: die at the worst possible instant
    }
  }
  core::PathEdge* e = table_.find_mutable(update.a, update.b);
  PATHSEL_EXPECT(e != nullptr, "applied update passed submit validation");
  fold_update(*e, update);

  const std::size_t n = w_rtt_.n;
  const std::size_t ia = table_.host_index(update.a);
  const std::size_t ib = table_.host_index(update.b);
  w_rtt_.w[ia * n + ib] = w_rtt_.w[ib * n + ia] =
      core::edge_weight(*e, core::Metric::kRtt);
  w_loss_.w[ia * n + ib] = w_loss_.w[ib * n + ia] =
      core::edge_weight(*e, core::Metric::kLoss);

  last_seq_ = seq;
  counters_.updates_applied.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Status ServeEngine::flush() {
  std::vector<EdgeUpdate> batch;
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    batch.assign(queue_.begin(), queue_.end());
    queue_.clear();
  }
  if (batch.empty()) return Status::ok();

  const ScopedTimer timer{"core.serve.apply"};
  std::vector<bool> host_touched(table_.hosts().size(), false);
  std::size_t applied = 0;
  Status stop = Status::ok();
  for (const EdgeUpdate& update : batch) {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      stop = options_.cancel->status();
      break;
    }
    if (Status s = apply_record(update); !s.is_ok()) {
      stop = s;
      break;
    }
    host_touched[table_.host_index(update.a)] = true;
    host_touched[table_.host_index(update.b)] = true;
    ++applied;
  }
  if (applied == 0) return stop;

  // Union of the rows incident to any touched host.  host_rows_ lists are
  // ascending, so a seen-bitmap plus sort keeps the set ordered and unique.
  std::vector<std::size_t> rows;
  std::vector<bool> row_seen(cols_rtt_.size(), false);
  for (std::size_t h = 0; h < host_touched.size(); ++h) {
    if (!host_touched[h]) continue;
    for (const std::size_t i : host_rows_[h]) {
      if (!row_seen[i]) {
        row_seen[i] = true;
        rows.push_back(i);
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  recompute_rows(rows);

  if (writer_.is_open() && options_.compact_every != 0 &&
      last_seq_ - last_compact_seq_ >= options_.compact_every) {
    if (Status s = compact(); !s.is_ok() && stop.is_ok()) stop = s;
  }
  publish_snapshot();
  return stop;
}

void ServeEngine::recompute_rows(const std::vector<std::size_t>& rows) {
  for (const std::size_t i : rows) {
    recompute_row(core::Metric::kRtt, w_rtt_, cols_rtt_, i);
    recompute_row(core::Metric::kLoss, w_loss_, cols_loss_, i);
  }
}

void ServeEngine::recompute_row(core::Metric metric,
                                const core::WeightMatrix& w,
                                core::ResultColumns& cols, std::size_t i) {
  // The kernel's own scalar loop over the single column ib, so the refreshed
  // row is bit-identical to a full min-plus resweep.
  const auto [ia, ib] = row_hosts_[i];
  const std::int32_t via_k = core::min_plus_relay(w, ia, ib);
  // The edge set is fixed and every surviving edge keeps a finite weight, so
  // a pair that had an alternate at build time always has one.
  PATHSEL_EXPECT(via_k != core::kNoRelay,
                 "served row lost its alternate; the row set is time-invariant");
  const core::PathEdge* direct =
      table_.find(topo::HostId{cols.src[i]}, topo::HostId{cols.dst[i]});
  PATHSEL_EXPECT(direct != nullptr, "served row lost its direct edge");
  core::overwrite_row(cols, i,
                      core::one_hop_result(table_, *direct, via_k, metric));
  cols.significance[i] = static_cast<std::int8_t>(
      core::classify_pair(cols, i, options_.confidence));
}

Status ServeEngine::compact() {
  const ServeStateImage image = capture_serve_state(table_, last_seq_);
  if (Status s = write_file_atomic(
          state_path(), serialize_serve_state(image, fingerprint_));
      !s.is_ok()) {
    return s;
  }
  const std::uint64_t next = generation_ + 1;
  if (Status s = write_file_atomic(
          journal_path(next),
          serialize_journal_header(fingerprint_, next, last_seq_ + 1));
      !s.is_ok()) {
    return s;
  }
  if (Status s = writer_.open(journal_path(next), kJournalHeaderBytes);
      !s.is_ok()) {
    return s;
  }
  generation_ = next;
  last_compact_seq_ = last_seq_;
  counters_.compactions.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

void ServeEngine::publish_snapshot() {
  const ScopedTimer timer{"core.serve.publish"};
  auto snap = std::make_unique<ServeSnapshot>();
  snap->seq = last_seq_;
  snap->publish_tick_ms = clock_ms();
  snap->table = table_;
  snap->rtt = cols_rtt_;
  snap->loss = cols_loss_;
  snap->row_index = row_index_;
  board_.publish(std::move(snap));
  counters_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
}

BestResponse ServeEngine::query_best(core::Metric metric, topo::HostId a,
                                     topo::HostId b, std::size_t slot) {
  counters_.queries_best.fetch_add(1, std::memory_order_relaxed);
  BestResponse out;
  const SnapshotBoard::Pin pin = board_.pin(slot);
  out.meta.seq = pin->seq;
  out.meta.age_ms = clock_ms() - pin->publish_tick_ms;
  out.meta.stale = out.meta.age_ms > options_.stale_after_ms;
  if (out.meta.stale) {
    counters_.stale_served.fetch_add(1, std::memory_order_relaxed);
  }

  if (!known_hosts_.contains(a.value()) || !known_hosts_.contains(b.value())) {
    out.kind = BestResponse::Kind::kUnknownHost;
    return out;
  }
  const topo::HostId lo = std::min(a, b);
  const topo::HostId hi = std::max(a, b);
  const core::PathEdge* direct = pin->table.find(lo, hi);
  if (direct == nullptr) {
    out.kind = BestResponse::Kind::kNoPair;
    return out;
  }
  const auto it = pin->row_index->find(row_key(lo.value(), hi.value()));
  if (it == pin->row_index->end()) {
    out.kind = BestResponse::Kind::kNoAlternate;
    out.direct = core::edge_metric_value(*direct, metric);
    return out;
  }
  const core::ResultColumns& cols =
      metric == core::Metric::kRtt ? pin->rtt : pin->loss;
  const std::size_t i = it->second;
  out.kind = BestResponse::Kind::kOk;
  out.direct = cols.default_value[i];
  out.alternate = cols.alternate_value[i];
  out.relay = cols.relay[i];
  out.significance = static_cast<core::SignificanceClass>(cols.significance[i]);
  return out;
}

DisjointResponse ServeEngine::query_disjoint(core::Metric metric, int k,
                                             topo::HostId a, topo::HostId b,
                                             std::size_t slot,
                                             double deadline_ms) {
  counters_.queries_disjoint.fetch_add(1, std::memory_order_relaxed);
  DisjointResponse out;
  const SnapshotBoard::Pin pin = board_.pin(slot);
  out.meta.seq = pin->seq;
  out.meta.age_ms = clock_ms() - pin->publish_tick_ms;
  out.meta.stale = out.meta.age_ms > options_.stale_after_ms;
  if (out.meta.stale) {
    counters_.stale_served.fetch_add(1, std::memory_order_relaxed);
  }

  if (!known_hosts_.contains(a.value()) || !known_hosts_.contains(b.value())) {
    out.kind = DisjointResponse::Kind::kUnknownHost;
    return out;
  }
  const topo::HostId lo = std::min(a, b);
  const topo::HostId hi = std::max(a, b);
  const core::PathEdge* direct = pin->table.find(lo, hi);
  if (direct == nullptr) {
    out.kind = DisjointResponse::Kind::kNoPair;
    return out;
  }

  CancelToken budget;
  if (deadline_ms >= 0.0) budget.set_deadline_after_seconds(deadline_ms / 1e3);
  core::DisjointOptions disjoint;
  disjoint.metric = metric;
  disjoint.k = k;
  disjoint.threads = 1;
  disjoint.cancel = &budget;
  Result<core::PairDisjointResult> result =
      core::compute_disjoint_for_pair(pin->table, *direct, disjoint);
  if (!result.is_ok()) {
    const ErrorCode code = result.status().code();
    if (code == ErrorCode::kDeadlineExceeded || code == ErrorCode::kCancelled) {
      out.kind = DisjointResponse::Kind::kDeadline;
      counters_.query_timeouts.fetch_add(1, std::memory_order_relaxed);
    } else {
      out.kind = DisjointResponse::Kind::kInvalidK;
    }
    return out;
  }
  out.kind = DisjointResponse::Kind::kOk;
  out.result = std::move(result.value());
  return out;
}

const ServeEngine::CounterField ServeEngine::kCounterFields[] = {
    {"core.serve.updates.accepted", &AtomicCounters::updates_accepted,
     &ServeCounters::updates_accepted},
    {"core.serve.updates.rejected", &AtomicCounters::updates_rejected,
     &ServeCounters::updates_rejected},
    {"core.serve.updates.shed", &AtomicCounters::updates_shed,
     &ServeCounters::updates_shed},
    {"core.serve.updates.applied", &AtomicCounters::updates_applied,
     &ServeCounters::updates_applied},
    {"core.serve.updates.replayed", &AtomicCounters::updates_replayed,
     &ServeCounters::updates_replayed},
    {"core.serve.journal.appends", &AtomicCounters::journal_appends,
     &ServeCounters::journal_appends},
    {"core.serve.journal.truncations", &AtomicCounters::journal_truncations,
     &ServeCounters::journal_truncations},
    {"core.serve.compactions", &AtomicCounters::compactions,
     &ServeCounters::compactions},
    {"core.serve.snapshots.published", &AtomicCounters::snapshots_published,
     &ServeCounters::snapshots_published},
    {"core.serve.queries.best", &AtomicCounters::queries_best,
     &ServeCounters::queries_best},
    {"core.serve.queries.disjoint", &AtomicCounters::queries_disjoint,
     &ServeCounters::queries_disjoint},
    {"core.serve.stale_served", &AtomicCounters::stale_served,
     &ServeCounters::stale_served},
    {"core.serve.query_timeouts", &AtomicCounters::query_timeouts,
     &ServeCounters::query_timeouts},
};

ServeCounters ServeEngine::counters() const {
  ServeCounters c;
  for (const CounterField& f : kCounterFields) {
    c.*f.snapshot = (counters_.*f.live).load(std::memory_order_relaxed);
  }
  return c;
}

void ServeEngine::sync_metrics() {
  MetricsRegistry& registry = MetricsRegistry::global();
  const ServeCounters now = counters();
  for (const CounterField& f : kCounterFields) {
    const std::uint64_t current = now.*f.snapshot;
    const std::uint64_t previous = last_synced_.*f.snapshot;
    if (current > previous) registry.count(f.name, current - previous);
  }
  last_synced_ = now;
}

}  // namespace pathsel::serve
