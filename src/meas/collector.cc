#include "meas/collector.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>

#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::meas {

namespace {

// The counter a probe outcome adds to, indexed by FailureReason; kNone is a
// completed probe.
constexpr std::string_view kOutcomeCounters[] = {
    "meas.collector.probes_completed",
    "meas.collector.probes_failed.endpoint_down",
    "meas.collector.probes_failed.probe_failure",
    "meas.collector.probes_failed.blackhole",
    "meas.collector.probes_failed.no_route",
    "meas.collector.probes_failed.stuck_probe",
};
static_assert(std::size(kOutcomeCounters) == kFailureReasonCount);

// Counts `n` probes that ended with `reason`.
void record_probe_outcome(FailureReason reason, std::uint64_t n = 1) {
  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled() && n != 0) {
    m.count(kOutcomeCounters[static_cast<std::size_t>(reason)], n);
  }
}

// Probes per chunk of the parallel probe stage.  Fixed, so chunk boundaries
// never depend on the thread count.
constexpr std::size_t kProbeChunk = 512;

// Fires later: ascending (t, seq), the campaign's one event order.  Datasets
// and checkpoints depend on it, so it must not change.
struct FiresLater {
  bool operator()(const CampaignEvent& a, const CampaignEvent& b) const noexcept {
    if (a.t != b.t) return b.t < a.t;
    return b.seq < a.seq;
  }
};

class Campaign {
 public:
  Campaign(const sim::Network& network, std::vector<topo::HostId> hosts,
           const CollectorConfig& config, std::string name)
      : net_{network},
        config_{config},
        rng_{config.seed},
        availability_{config.availability, network.topology().host_count(),
                      config.duration},
        end_{SimTime::start() + config.duration} {
    dataset_.name = std::move(name);
    dataset_.kind = config.kind;
    dataset_.duration = config.duration;
    dataset_.hosts = std::move(hosts);
    dataset_.first_sample_loss_only = config.first_sample_loss_only;
    PATHSEL_EXPECT(dataset_.hosts.size() >= 2, "campaign needs >= 2 hosts");

    for (const topo::HostId h : dataset_.hosts) {
      if (config_.allow_rate_limited_targets ||
          !net_.topology().host(h).icmp_rate_limited) {
        targets_.push_back(h);
      }
    }
    PATHSEL_EXPECT(targets_.size() >= 2, "campaign needs >= 2 targets");

    if (config.faults != nullptr && config.faults->enabled()) {
      plan_ = config.faults;
      injector_.emplace(net_, *plan_);
      // Crash/reboot episodes layer onto the availability model, so one
      // is_up() check covers both long-run flakiness and injected crashes.
      for (std::size_t h = 0; h < availability_.host_count(); ++h) {
        const topo::HostId host{static_cast<std::int32_t>(h)};
        for (const auto& iv : plan_->host_down_intervals(host)) {
          availability_.add_downtime(host, iv.begin, iv.end);
        }
      }
    }
    fault_aware_ = plan_ != nullptr || config_.retry.max_retries > 0;
    if (plan_ == nullptr) resolve_default_paths();
  }

  Result<Dataset> run(const CollectControls& controls,
                      std::optional<CampaignCheckpoint> resume) {
    threads_ = controls.threads;
    if (!resume.has_value()) {
      schedule_initial();
    } else {
      const Status restored = restore(std::move(*resume));
      if (!restored.is_ok()) return restored;
    }

    const bool checkpointing =
        controls.on_checkpoint != nullptr &&
        !(controls.checkpoint_interval < Duration::millis(1));
    SimTime next_checkpoint =
        checkpointing ? now_ + controls.checkpoint_interval : end_;

    while (!heap_.empty() && !(end_ < heap_.front().t)) {
      if (controls.cancel != nullptr && controls.cancel->cancelled()) {
        if (controls.on_checkpoint != nullptr) {
          const Status saved = checkpoint(controls);
          if (!saved.is_ok()) return saved;
        }
        return controls.cancel->status();
      }
      dispatch(pop_event());
      if (checkpointing && !(now_ < next_checkpoint)) {
        const Status saved = checkpoint(controls);
        if (!saved.is_ok()) return saved;
        while (!(now_ < next_checkpoint)) {
          next_checkpoint = next_checkpoint + controls.checkpoint_interval;
        }
      }
    }

    resolve_pending();
    std::sort(dataset_.measurements.begin(), dataset_.measurements.end(),
              [](const Measurement& a, const Measurement& b) {
                return a.when < b.when;
              });
    return std::move(dataset_);
  }

 private:
  struct PairPaths {
    const route::RouterPath* fwd = nullptr;
    const route::RouterPath* rev = nullptr;
    AsPathId path = AsPathPool::kEmpty;  // fwd's AS path, once interned
    bool interned = false;
  };

  // --- typed-event heap ------------------------------------------------------
  // Seq is allocated per push, so equal-time events keep their scheduling
  // order.

  void push_event(CampaignEvent ev) {
    ev.seq = next_seq_++;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  }

  CampaignEvent pop_event() {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    CampaignEvent ev = heap_.back();
    heap_.pop_back();
    now_ = ev.t;
    return ev;
  }

  void schedule_initial() {
    switch (config_.discipline) {
      case Discipline::kUniformPerServer:
        for (std::size_t i = 0; i < dataset_.hosts.size(); ++i) {
          server_rngs_.push_back(rng_.fork(i));
        }
        for (std::size_t i = 0; i < dataset_.hosts.size(); ++i) {
          schedule_server_probe(i, SimTime::start());
        }
        break;
      case Discipline::kExponentialPair:
        schedule_next_pair(SimTime::start());
        break;
      case Discipline::kEpisodeFullMesh:
        schedule_next_episode(SimTime::start());
        break;
    }
  }

  void dispatch(const CampaignEvent& ev) {
    switch (ev.kind) {
      case CampaignEventKind::kServerProbe: {
        const auto server_idx = static_cast<std::size_t>(ev.a);
        Rng& rng = server_rngs_[server_idx];
        const topo::HostId server = dataset_.hosts[server_idx];
        topo::HostId target = server;
        while (target == server) {
          target = targets_[rng.index(targets_.size())];
        }
        measure(server, target, ev.t, -1);
        schedule_server_probe(server_idx, ev.t);
        break;
      }
      case CampaignEventKind::kNextPair: {
        const topo::HostId src =
            dataset_.hosts[rng_.index(dataset_.hosts.size())];
        topo::HostId dst = src;
        while (dst == src) {
          dst = targets_[rng_.index(targets_.size())];
        }
        measure(src, dst, ev.t, -1);
        schedule_next_pair(ev.t);
        break;
      }
      case CampaignEventKind::kNextEpisode: {
        const std::int32_t episode = dataset_.episode_count++;
        // Every ordered pair, spread across the episode window.
        for (const topo::HostId src : dataset_.hosts) {
          for (const topo::HostId dst : dataset_.hosts) {
            if (src == dst) continue;
            const double offset_s =
                rng_.uniform(0.0, config_.episode_window.total_seconds());
            push_event(CampaignEvent{
                .t = ev.t + Duration::seconds(offset_s),
                .kind = CampaignEventKind::kEpisodeProbe,
                .a = src.value(),
                .b = dst.value(),
                .episode = episode,
            });
          }
        }
        schedule_next_episode(ev.t);
        break;
      }
      case CampaignEventKind::kEpisodeProbe:
        measure(topo::HostId{ev.a}, topo::HostId{ev.b}, ev.t, ev.episode);
        break;
      case CampaignEventKind::kRetry:
        attempt(topo::HostId{ev.a}, topo::HostId{ev.b}, ev.first, ev.t,
                ev.episode, ev.tried);
        break;
    }
  }

  // --- checkpoint ------------------------------------------------------------

  // Resolves the recorded probes and hands on_checkpoint a snapshot.  The
  // measurements are lent, not copied: moved into the snapshot for the call
  // and back out after it.
  [[nodiscard]] Status checkpoint(const CollectControls& controls) {
    resolve_pending();
    CampaignCheckpoint cp = snapshot();
    cp.measurements = std::move(dataset_.measurements);
    cp.paths = std::move(dataset_.paths);
    const Status saved = controls.on_checkpoint(cp);
    dataset_.measurements = std::move(cp.measurements);
    dataset_.paths = std::move(cp.paths);
    return saved;
  }

  // Everything but the measurements and their paths (see checkpoint()).
  [[nodiscard]] CampaignCheckpoint snapshot() const {
    CampaignCheckpoint cp;
    cp.dataset_name = dataset_.name;
    cp.now = now_;
    cp.next_seq = next_seq_;
    cp.episode_count = dataset_.episode_count;
    cp.rng_state = rng_.state();
    cp.server_rng_states.reserve(server_rngs_.size());
    for (const Rng& r : server_rngs_) cp.server_rng_states.push_back(r.state());
    cp.injector_epoch =
        injector_.has_value() ? static_cast<std::uint64_t>(injector_->epoch())
                              : 0;
    cp.pending = heap_;
    std::sort(cp.pending.begin(), cp.pending.end(),
              [](const CampaignEvent& a, const CampaignEvent& b) {
                return a.t != b.t ? a.t < b.t : a.seq < b.seq;
              });
    return cp;
  }

  // Takes the checkpoint's measurements, paths and pending events over.
  [[nodiscard]] Status restore(CampaignCheckpoint&& cp) {
    auto mismatch = [](const std::string& what) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "checkpoint does not match this campaign: " + what);
    };
    if (config_.discipline == Discipline::kUniformPerServer) {
      if (cp.server_rng_states.size() != dataset_.hosts.size()) {
        return mismatch("per-server RNG stream count");
      }
    } else if (!cp.server_rng_states.empty()) {
      return mismatch("per-server RNG streams in a pairwise campaign");
    }
    if (end_ < cp.now) return mismatch("checkpoint time past campaign end");
    for (const CampaignEvent& ev : cp.pending) {
      if (ev.seq >= cp.next_seq) return mismatch("event sequence numbers");
      if (ev.t < cp.now) return mismatch("pending event before checkpoint time");
    }

    now_ = cp.now;
    next_seq_ = cp.next_seq;
    dataset_.episode_count = cp.episode_count;
    // Nothing has been interned before the first event, so the rows keep
    // the checkpoint's pool and ids.
    dataset_.measurements = std::move(cp.measurements);
    dataset_.paths = std::move(cp.paths);
    rng_.restore(cp.rng_state);
    server_rngs_.clear();
    for (const auto& state : cp.server_rng_states) {
      Rng r{0};
      r.restore(state);
      server_rngs_.push_back(r);
    }
    heap_ = std::move(cp.pending);
    std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
    if (injector_.has_value()) {
      // Routed state is a pure function of the inter-transition epoch, so
      // advancing a fresh injector reproduces it exactly; a different epoch
      // means the checkpoint was taken under a different fault plan.
      injector_->advance_to(now_);
      if (static_cast<std::uint64_t>(injector_->epoch()) != cp.injector_epoch) {
        return mismatch("fault injector epoch");
      }
    } else if (cp.injector_epoch != 0) {
      return mismatch("fault injector epoch without a fault plan");
    }
    return Status::ok();
  }

  // --- measurement -----------------------------------------------------------

  void measure(topo::HostId src, topo::HostId dst, SimTime t,
               std::int32_t episode) {
    if (fault_aware_) {
      attempt(src, dst, t, t, episode, 0);
      return;
    }
    Measurement m;
    m.when = t;
    m.src = src;
    m.dst = dst;
    m.episode = episode;
    MetricsRegistry::global().count("meas.collector.probes_attempted");
    if (!availability_.is_up(src, t) || !availability_.is_up(dst, t)) {
      m.completed = false;  // unreachable server: attempt recorded, no data
      record_probe_outcome(FailureReason::kEndpointDown);
    } else {
      // The probe itself runs later, in resolve_pending().
      if (config_.kind == MeasurementKind::kTraceroute) {
        m.path = pair_path(src, dst);
      }
      pending_.push_back(dataset_.measurements.size());
    }
    dataset_.measurements.push_back(std::move(m));
  }

  // --- probe stage -----------------------------------------------------------

  // Resolves every probe measure() has recorded since the last call, in
  // fixed chunks on the shared pool, then counts their outcomes serially.
  // Each chunk owns its scratch (and so its load-field memo); each probe
  // writes only its own measurement, so the bytes match a serial run.
  void resolve_pending() {
    if (pending_.empty()) return;
    ThreadPool::shared(resolve_thread_count(threads_))
        .parallel_for(pending_.size(), kProbeChunk,
                      [this](std::size_t begin, std::size_t end, std::size_t) {
                        sim::ProbeScratch scratch;
                        for (std::size_t i = begin; i < end; ++i) {
                          probe(dataset_.measurements[pending_[i]], scratch);
                        }
                      });
    std::uint64_t failed = 0;
    for (const std::size_t i : pending_) {
      if (!dataset_.measurements[i].completed) ++failed;
    }
    record_probe_outcome(FailureReason::kNone, pending_.size() - failed);
    record_probe_outcome(FailureReason::kProbeFailure, failed);
    pending_.clear();
  }

  // Fills the payload of one fault-free measurement recorded by measure().
  // Reads only immutable campaign state, so chunks run concurrently.
  void probe(Measurement& m, sim::ProbeScratch& scratch) const {
    const PairPaths& paths = default_paths(m.src, m.dst);
    if (config_.kind == MeasurementKind::kTraceroute) {
      const sim::TracerouteResult r = net_.traceroute_over(
          *paths.fwd, *paths.rev, m.src, m.dst, m.when, scratch);
      m.completed = r.completed;
      m.samples = r.samples;
    } else {
      const sim::TcpTransferResult r = net_.tcp_transfer_over(
          *paths.fwd, *paths.rev, m.src, m.dst, m.when, scratch);
      m.completed = r.completed;
      m.bandwidth_kBps = r.bandwidth_kBps;
      m.tcp_rtt_ms = r.rtt_ms;
      m.tcp_loss_rate = r.loss_rate;
    }
  }

  // Resolves the default forward and reverse paths of every ordered host
  // pair once, on the constructing thread: Network::default_path fills a
  // cache and must not run on the probe workers.  Hosts x hosts, because an
  // episode mesh also probes hosts that are not in the target pool.
  void resolve_default_paths() {
    const std::size_t n = dataset_.hosts.size();
    host_index_.assign(net_.topology().host_count(), 0);
    for (std::size_t i = 0; i < n; ++i) host_index_[dataset_.hosts[i].index()] = i;
    paths_.assign(n * n, PairPaths{});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const topo::HostId a = dataset_.hosts[i];
        const topo::HostId b = dataset_.hosts[j];
        if (a == b) continue;
        paths_[i * n + j] = {&net_.default_path(a, b),
                             &net_.default_path(b, a)};
      }
    }
  }

  const PairPaths& default_paths(topo::HostId src, topo::HostId dst) const {
    return paths_[host_index_[src.index()] * dataset_.hosts.size() +
                  host_index_[dst.index()]];
  }

  // The pair's forward AS path id.  It is interned on the pair's first
  // probe, serially in the event loop (the probe workers only read), so the
  // pool holds exactly the paths the dataset's rows carry.
  AsPathId pair_path(topo::HostId src, topo::HostId dst) {
    PairPaths& pair = paths_[host_index_[src.index()] * dataset_.hosts.size() +
                             host_index_[dst.index()]];
    if (!pair.interned) {
      pair.path = dataset_.paths.intern(pair.fwd->as_path);
      pair.interned = true;
    }
    return pair.path;
  }

  // One attempt of a fault-aware measurement; fills m's payload on success
  // (and the partial traceroute payload on a probe failure, as the legacy
  // path does), with the probed forward AS path in `path`, and returns the
  // failure reason.
  FailureReason try_once(Measurement& m, std::span<const topo::AsId>& path,
                         topo::HostId src, topo::HostId dst, SimTime t) {
    if (!availability_.is_up(src, t) || !availability_.is_up(dst, t)) {
      return FailureReason::kEndpointDown;
    }
    if (plan_ != nullptr && plan_->probe_stuck(src, dst, t)) {
      return FailureReason::kStuckProbe;
    }

    const route::RouterPath* fwd = nullptr;
    const route::RouterPath* rev = nullptr;
    bool storm = false;
    if (plan_ == nullptr) {
      const PairPaths& paths = default_paths(src, dst);
      fwd = paths.fwd;
      rev = paths.rev;
    } else {
      injector_->advance_to(t);
      fwd = &injector_->effective_path(src, dst);
      rev = &injector_->effective_path(dst, src);
      if (!fwd->valid() || !rev->valid()) return FailureReason::kNoRoute;
      if (injector_->blackholed(*fwd, t) || injector_->blackholed(*rev, t)) {
        return FailureReason::kBlackhole;
      }
      storm = plan_->icmp_storm(dst, t);
    }

    if (config_.kind == MeasurementKind::kTraceroute) {
      const sim::TracerouteResult r =
          net_.traceroute_over(*fwd, *rev, src, dst, t, scratch_, storm);
      m.samples = r.samples;
      path = r.as_path;
      return r.completed ? FailureReason::kNone : FailureReason::kProbeFailure;
    }
    const sim::TcpTransferResult r =
        net_.tcp_transfer_over(*fwd, *rev, src, dst, t, scratch_);
    if (!r.completed) return FailureReason::kProbeFailure;
    m.bandwidth_kBps = r.bandwidth_kBps;
    m.tcp_rtt_ms = r.rtt_ms;
    m.tcp_loss_rate = r.loss_rate;
    return FailureReason::kNone;
  }

  void attempt(topo::HostId src, topo::HostId dst, SimTime first, SimTime t,
               std::int32_t episode, std::int32_t tried) {
    Measurement m;
    m.when = first;  // the logical measurement keeps its first-attempt time
    m.src = src;
    m.dst = dst;
    m.episode = episode;
    MetricsRegistry::global().count("meas.collector.probes_attempted");
    std::span<const topo::AsId> path;
    const FailureReason reason = try_once(m, path, src, dst, t);
    m.attempts = static_cast<std::uint8_t>(std::min(tried + 1, 255));

    if (reason != FailureReason::kNone && tried < config_.retry.max_retries) {
      const double backoff_s =
          config_.retry.initial_backoff.total_seconds() *
          std::pow(config_.retry.backoff_multiplier, tried);
      const SimTime next = t + Duration::seconds(backoff_s);
      if (next < end_) {
        MetricsRegistry::global().count("meas.collector.probes_retried");
        push_event(CampaignEvent{
            .t = next,
            .kind = CampaignEventKind::kRetry,
            .a = src.value(),
            .b = dst.value(),
            .first = first,
            .episode = episode,
            .tried = tried + 1,
        });
        return;
      }
    }
    m.completed = reason == FailureReason::kNone;
    m.failure = reason;
    m.path = dataset_.paths.intern(path);  // only a recorded row's path
    record_probe_outcome(reason);
    dataset_.measurements.push_back(std::move(m));
  }

  // --- schedulers ------------------------------------------------------------
  // Each draws its wait *before* pushing, exactly where the closure-based
  // code drew it, so RNG stream positions stay byte-compatible.

  // UW1: per-server uniform schedule; target drawn from the target pool.
  // Interval ~ U[0, 2 * mean] (the paper notes this lacks the exponential
  // distribution's protection against anticipation).
  void schedule_server_probe(std::size_t server_idx, SimTime now) {
    Rng& server_rng = server_rngs_[server_idx];
    const double wait_s =
        server_rng.uniform(0.0, 2.0 * config_.mean_interval.total_seconds());
    push_event(CampaignEvent{
        .t = now + Duration::seconds(wait_s),
        .kind = CampaignEventKind::kServerProbe,
        .a = static_cast<std::int32_t>(server_idx),
    });
  }

  void schedule_next_pair(SimTime now) {
    const double wait_s =
        rng_.exponential(config_.mean_interval.total_seconds());
    push_event(CampaignEvent{
        .t = now + Duration::seconds(wait_s),
        .kind = CampaignEventKind::kNextPair,
    });
  }

  void schedule_next_episode(SimTime now) {
    const double wait_s =
        rng_.exponential(config_.mean_interval.total_seconds());
    push_event(CampaignEvent{
        .t = now + Duration::seconds(wait_s),
        .kind = CampaignEventKind::kNextEpisode,
    });
  }

  const sim::Network& net_;
  CollectorConfig config_;
  Rng rng_;
  HostAvailability availability_;
  SimTime end_;
  Dataset dataset_;
  std::vector<topo::HostId> targets_;
  std::vector<Rng> server_rngs_;
  const sim::FaultPlan* plan_ = nullptr;           // null when disabled
  std::optional<sim::FaultInjector> injector_;     // engaged iff plan_
  bool fault_aware_ = false;

  // Default paths per ordered host pair, row-major by host position; filled
  // only without a fault plan (the injector resolves paths otherwise).
  std::vector<std::size_t> host_index_;  // position in hosts, by HostId
  std::vector<PairPaths> paths_;
  // Fault-free probes recorded but not yet resolved (measurement indices).
  std::vector<std::size_t> pending_;
  int threads_ = 0;
  // The fault-aware path probes serially through this one scratch.
  sim::ProbeScratch scratch_;

  std::vector<CampaignEvent> heap_;  // min-heap by (t, seq) via FiresLater
  std::uint64_t next_seq_ = 0;
  SimTime now_ = SimTime::start();
};

}  // namespace

Dataset collect(const sim::Network& network, std::vector<topo::HostId> hosts,
                const CollectorConfig& config, std::string name) {
  Result<Dataset> result = collect_resumable(
      network, std::move(hosts), config, std::move(name), CollectControls{});
  PATHSEL_EXPECT(result.is_ok(), "uncancellable collect() failed");
  return std::move(result.value());
}

Result<Dataset> collect_resumable(const sim::Network& network,
                                  std::vector<topo::HostId> hosts,
                                  const CollectorConfig& config,
                                  std::string name,
                                  const CollectControls& controls,
                                  std::optional<CampaignCheckpoint> resume) {
  ScopedTimer timer{"meas.collect"};
  Campaign campaign{network, std::move(hosts), config, std::move(name)};
  return campaign.run(controls, std::move(resume));
}

}  // namespace pathsel::meas
