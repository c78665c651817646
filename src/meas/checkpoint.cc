#include "meas/checkpoint.h"

#include <array>
#include <filesystem>
#include <limits>
#include <string_view>

#include "meas/serialize.h"
#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts in a corrupt file.
constexpr std::size_t kMaxPending = 50'000'000;
constexpr std::size_t kMaxMeasurements = 500'000'000;
constexpr std::size_t kMaxServerRngs = 1'000'000;

// The row cache appends to its last chunk until it holds this many bytes.
// One growing string would be re-allocated and copied each time it doubles,
// which raised a faulted collection's peak RSS; a chunk per save would cost
// one write() per save in a long campaign.
constexpr std::size_t kRowChunkBytes = std::size_t{1} << 20;

std::uint64_t mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t s = h;
  return h = splitmix64(s);
}

Status corrupt(const std::string& what) {
  return Status::error(ErrorCode::kParseError, "corrupt checkpoint: " + what);
}

/// The payload of checkpoint text: everything before its trailing decimal
/// "crc <n>" line, which must match.
Result<std::string_view> payload_of(std::string_view text) {
  const std::optional<std::string_view> payload =
      codec::unseal_text(text, codec::CrcRadix::kDecimal);
  if (!payload.has_value()) {
    return corrupt("missing, malformed or mismatched crc line (torn or "
                   "tampered file)");
  }
  return *payload;
}

std::string sanitize_filename(const std::string& dataset) {
  std::string out = dataset;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// The one place a generation file's name is spelled: <name>.ckpt.<g>.
std::string generation_file(const std::string& dir, const std::string& dataset,
                            int generation) {
  return dir + "/" + sanitize_filename(dataset) + ".ckpt." +
         std::to_string(generation);
}

/// Checkpoint text up to its measurement rows: the header, state, RNG and
/// pending lines, then "measurements N".
std::string serialize_head(const CampaignCheckpoint& cp, MeasurementKind kind,
                           std::uint64_t fingerprint) {
  using codec::append_line;
  std::string out = kCheckpointHeader;
  out += '\n';
  append_line(out, "dataset", cp.dataset_name);
  append_line(out, "kind",
              kind == MeasurementKind::kTraceroute ? "traceroute" : "tcp");
  append_line(out, "fingerprint", fingerprint);
  append_line(out, "now_ms", cp.now.since_start().total_millis());
  append_line(out, "next_seq", cp.next_seq);
  append_line(out, "episodes", cp.episode_count);
  append_line(out, "injector_epoch", cp.injector_epoch);
  append_line(out, "rng", cp.rng_state[0], cp.rng_state[1], cp.rng_state[2],
              cp.rng_state[3]);
  append_line(out, "server_rngs", cp.server_rng_states.size());
  for (const auto& s : cp.server_rng_states) {
    append_line(out, "r", s[0], s[1], s[2], s[3]);
  }
  append_line(out, "pending", cp.pending.size());
  for (const CampaignEvent& ev : cp.pending) {
    append_line(out, "e", static_cast<int>(ev.kind),
                ev.t.since_start().total_millis(), ev.seq, ev.a, ev.b,
                ev.first.since_start().total_millis(), ev.episode, ev.tried);
  }
  append_line(out, "measurements", cp.measurements.size());
  return out;
}

}  // namespace

std::uint64_t fold_fingerprint(std::uint64_t base, std::uint64_t value) {
  std::uint64_t h = base;
  return mix(h, value);
}

std::uint64_t checkpoint_fingerprint(std::string_view dataset,
                                     const CollectorConfig& config,
                                     std::span<const topo::HostId> hosts) {
  std::uint64_t h = 0x70617468'73656c00ULL;  // "pathsel"
  for (const char c : dataset) mix(h, static_cast<unsigned char>(c));
  mix(h, config.seed);
  mix(h, static_cast<std::uint64_t>(config.discipline));
  mix(h, static_cast<std::uint64_t>(config.kind));
  mix(h, static_cast<std::uint64_t>(config.duration.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.mean_interval.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.episode_window.total_millis()));
  mix(h, config.allow_rate_limited_targets ? 1 : 0);
  mix(h, config.first_sample_loss_only ? 1 : 0);
  mix(h, static_cast<std::uint64_t>(config.retry.max_retries));
  mix(h, static_cast<std::uint64_t>(
             config.retry.initial_backoff.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.retry.backoff_multiplier * 1e6));
  mix(h, config.availability.seed);
  mix(h, static_cast<std::uint64_t>(config.availability.dead_fraction * 1e9));
  mix(h, static_cast<std::uint64_t>(config.availability.flaky_fraction * 1e9));
  mix(h,
      static_cast<std::uint64_t>(config.availability.min_down_fraction * 1e9));
  mix(h,
      static_cast<std::uint64_t>(config.availability.max_down_fraction * 1e9));
  mix(h, static_cast<std::uint64_t>(config.availability.mean_up.total_millis()));
  if (config.faults != nullptr && config.faults->enabled()) {
    const sim::FaultConfig& f = config.faults->config();
    mix(h, f.seed);
    mix(h, static_cast<std::uint64_t>(f.link_flap_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.exchange_outage_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.host_crash_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.icmp_storm_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.probe_stuck_rate * 1e9));
  }
  mix(h, hosts.size());
  for (const topo::HostId host : hosts) {
    mix(h, static_cast<std::uint64_t>(host.value()));
  }
  return h;
}

std::string serialize_checkpoint(const CampaignCheckpoint& cp,
                                 MeasurementKind kind,
                                 std::uint64_t fingerprint) {
  std::string out = serialize_head(cp, kind, fingerprint);
  for (const Measurement& m : cp.measurements) {
    append_measurement(out, m, kind, cp.paths);
  }
  codec::seal_text(out, codec::CrcRadix::kDecimal);
  return out;
}

Result<CampaignCheckpoint> parse_checkpoint(std::string_view text,
                                            MeasurementKind expected_kind,
                                            std::uint64_t expected_fingerprint) {
  const Result<std::string_view> payload = payload_of(text);
  if (!payload.is_ok()) return payload.status();
  codec::Lines lines{payload.value()};
  std::string_view line;
  if (!lines.next(line) || line != kCheckpointHeader) {
    return corrupt("missing or unsupported header");
  }

  auto expect_field = [&](const char* key, std::string_view& value) {
    return lines.next(line) && codec::split_field(line, key, value);
  };
  // A line of exactly `key` and four u64 words.
  auto rng_line = [&](const char* key, std::array<std::uint64_t, 4>& state) {
    codec::Tokens ls{line};
    if (ls.next() != key) return false;
    for (std::uint64_t& word : state) {
      if (!ls.next_int(word)) return false;
    }
    return ls.next().empty();
  };

  CampaignCheckpoint cp;
  std::string_view value;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  if (!expect_field("dataset", value)) return corrupt("missing dataset");
  cp.dataset_name = value;
  if (!expect_field("kind", value)) return corrupt("missing kind");
  MeasurementKind kind;
  if (value == "traceroute") {
    kind = MeasurementKind::kTraceroute;
  } else if (value == "tcp") {
    kind = MeasurementKind::kTcpTransfer;
  } else {
    return corrupt("unknown kind: " + std::string{value});
  }
  if (kind != expected_kind) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "checkpoint kind does not match this campaign");
  }
  if (!expect_field("fingerprint", value) || !codec::parse_u64(value, u)) {
    return corrupt("missing fingerprint");
  }
  if (u != expected_fingerprint) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "checkpoint fingerprint does not match this campaign (different "
        "config, seed, faults, or host list)");
  }
  if (!expect_field("now_ms", value) || !codec::parse_i64(value, i) || i < 0) {
    return corrupt("invalid now_ms");
  }
  cp.now = SimTime::at(Duration::millis(i));
  if (!expect_field("next_seq", value) ||
      !codec::parse_u64(value, cp.next_seq)) {
    return corrupt("invalid next_seq");
  }
  if (!expect_field("episodes", value) || !codec::parse_i64(value, i) ||
      i < 0 || i > std::numeric_limits<std::int32_t>::max()) {
    return corrupt("invalid episodes");
  }
  cp.episode_count = static_cast<std::int32_t>(i);
  if (!expect_field("injector_epoch", value) ||
      !codec::parse_u64(value, cp.injector_epoch)) {
    return corrupt("invalid injector_epoch");
  }

  if (!lines.next(line)) return corrupt("missing rng line");
  if (!rng_line("rng", cp.rng_state)) return corrupt("malformed rng line");

  if (!expect_field("server_rngs", value) || !codec::parse_u64(value, u) ||
      u > kMaxServerRngs) {
    return corrupt("invalid server_rngs count");
  }
  cp.server_rng_states.reserve(u);
  for (std::uint64_t n = 0; n < u; ++n) {
    if (!lines.next(line)) return corrupt("truncated server rng list");
    std::array<std::uint64_t, 4> state{};
    if (!rng_line("r", state)) return corrupt("malformed server rng line");
    cp.server_rng_states.push_back(state);
  }

  if (!expect_field("pending", value) || !codec::parse_u64(value, u) ||
      u > kMaxPending) {
    return corrupt("invalid pending count");
  }
  cp.pending.reserve(u);
  for (std::uint64_t n = 0; n < u; ++n) {
    if (!lines.next(line)) return corrupt("truncated pending list");
    codec::Tokens ls{line};
    int kind_v = 0;
    std::int64_t t_ms = 0;
    std::int64_t first_ms = 0;
    CampaignEvent ev;
    if (ls.next() != "e" || !ls.next_int(kind_v) || !ls.next_int(t_ms) ||
        !ls.next_int(ev.seq) || !ls.next_int(ev.a) || !ls.next_int(ev.b) ||
        !ls.next_int(first_ms) || !ls.next_int(ev.episode) ||
        !ls.next_int(ev.tried) || !ls.next().empty()) {
      return corrupt("malformed pending event: " + std::string{line});
    }
    if (kind_v < 0 || kind_v >= kCampaignEventKindCount || t_ms < 0 ||
        first_ms < 0 || ev.episode < -1 || ev.tried < 0 || ev.tried > 255) {
      return corrupt("pending event out of range: " + std::string{line});
    }
    ev.kind = static_cast<CampaignEventKind>(kind_v);
    ev.t = SimTime::at(Duration::millis(t_ms));
    ev.first = SimTime::at(Duration::millis(first_ms));
    cp.pending.push_back(ev);
  }

  if (!expect_field("measurements", value) || !codec::parse_u64(value, u) ||
      u > kMaxMeasurements) {
    return corrupt("invalid measurements count");
  }
  cp.measurements.reserve(u);
  std::string error;
  if (!parse_measurements(lines, u, kind, cp.paths, cp.measurements, &error)) {
    return corrupt(error);
  }
  if (lines.next(line)) return corrupt("trailing data after payload");
  return cp;
}

CheckpointLoad load_newest_checkpoint(const std::string& dir,
                                      const std::string& dataset,
                                      MeasurementKind kind,
                                      std::uint64_t fingerprint) {
  CheckpointLoad out;
  for (const int generation : {0, 1}) {
    const std::string path = generation_file(dir, dataset, generation);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    Result<CampaignCheckpoint> parsed = [&]() -> Result<CampaignCheckpoint> {
      const ScopedTimer timer{"meas.checkpoint.load"};
      const Result<std::string> text = read_file(path);
      if (!text.is_ok()) return text.status();
      return parse_checkpoint(text.value(), kind, fingerprint);
    }();
    if (!parsed.is_ok()) {
      out.discarded.push_back(path + ": " + parsed.status().message());
      continue;
    }
    CampaignCheckpoint& cp = parsed.value();
    const bool newer =
        !out.checkpoint.has_value() || out.checkpoint->now < cp.now ||
        (out.checkpoint->now == cp.now && out.checkpoint->next_seq < cp.next_seq);
    if (newer) {
      out.checkpoint = std::move(cp);
      out.generation = generation;
    }
  }
  return out;
}

CheckpointLoad CheckpointStore::load(const std::string& dataset,
                                    MeasurementKind kind,
                                    std::uint64_t fingerprint) {
  CheckpointLoad out = load_newest_checkpoint(dir_, dataset, kind, fingerprint);
  next_generation_[dataset] =
      out.checkpoint.has_value() ? 1 - out.generation : 0;
  return out;
}

std::string CheckpointStore::generation_path(const std::string& dataset,
                                             int generation) const {
  return generation_file(dir_, dataset, generation);
}

Status CheckpointStore::save(const CampaignCheckpoint& cp,
                             MeasurementKind kind, std::uint64_t fingerprint) {
  const ScopedTimer timer{"meas.checkpoint.save"};
  const Status made = ensure_directory(dir_);
  if (!made.is_ok()) return made;

  // First save for a dataset not loaded here: continue alternating away
  // from whichever generation holds the newest valid checkpoint.
  auto [next, first_save] = next_generation_.try_emplace(cp.dataset_name, 0);
  if (first_save) {
    const CheckpointLoad newest =
        load_newest_checkpoint(dir_, cp.dataset_name, kind, fingerprint);
    if (newest.checkpoint.has_value()) next->second = 1 - newest.generation;
  }

  // Format only the rows appended since the last save of this dataset; the
  // cached rows are reused as written and their CRC is folded in, not re-read.
  RowCache& cache = rows_[cp.dataset_name];
  if (!cache.extends(cp, kind, fingerprint)) {
    cache = RowCache{};
    cache.kind = kind;
    cache.fingerprint = fingerprint;
  }
  if (cache.chunks.empty() || cache.chunks.back().size() >= kRowChunkBytes) {
    cache.chunks.emplace_back();
  }
  std::string& chunk = cache.chunks.back();
  const std::size_t cached_bytes = chunk.size();
  for (std::size_t i = cache.count; i < cp.measurements.size(); ++i) {
    append_measurement(chunk, cp.measurements[i], kind, cp.paths);
  }
  cache.crc = crc32(std::string_view{chunk}.substr(cached_bytes), cache.crc);
  cache.bytes += chunk.size() - cached_bytes;
  MetricsRegistry::global().count("meas.checkpoint.rows_formatted",
                                  cp.measurements.size() - cache.count);
  cache.count = cp.measurements.size();
  if (cache.count != 0) cache.last = RowKey::of(cp.measurements.back());

  const std::string head = serialize_head(cp, kind, fingerprint);
  std::string trailer;
  codec::append_trailer(
      trailer, crc32_combine(crc32(head), cache.crc, cache.bytes),
      codec::CrcRadix::kDecimal);
  std::vector<std::string_view> parts{head};
  parts.insert(parts.end(), cache.chunks.begin(), cache.chunks.end());
  parts.push_back(trailer);
  const Status wrote =
      write_file_atomic(generation_path(cp.dataset_name, next->second), parts);
  if (!wrote.is_ok()) return wrote;
  MetricsRegistry::global().count("meas.checkpoint.bytes_written",
                                  head.size() + cache.bytes + trailer.size());
  next->second = 1 - next->second;
  return wrote;
}

bool CheckpointStore::RowCache::extends(const CampaignCheckpoint& cp,
                                        MeasurementKind cp_kind,
                                        std::uint64_t cp_fingerprint) const {
  return kind == cp_kind && fingerprint == cp_fingerprint &&
         count <= cp.measurements.size() &&
         (count == 0 || last == RowKey::of(cp.measurements[count - 1]));
}

}  // namespace pathsel::meas
