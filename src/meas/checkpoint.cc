#include "meas/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>

#include "meas/serialize.h"
#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/rng.h"

namespace pathsel::meas {

namespace {

constexpr char kManifestHeader[] = "pathsel-manifest v1";

// Hard caps against adversarial counts in a corrupt file.
constexpr std::size_t kMaxPending = 50'000'000;
constexpr std::size_t kMaxMeasurements = 500'000'000;
constexpr std::size_t kMaxServerRngs = 1'000'000;

std::uint64_t mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t s = h;
  return h = splitmix64(s);
}

Status corrupt(const std::string& what) {
  return Status::error(ErrorCode::kParseError, "corrupt checkpoint: " + what);
}

/// Splits off and verifies the trailing "crc <n>" line; on success returns
/// the payload (everything before that line).
Result<std::string_view> strip_and_check_crc(std::string_view text) {
  // The payload always ends with '\n', so the crc line is the last
  // newline-terminated line.
  if (text.empty() || text.back() != '\n') {
    return corrupt("missing trailing newline (truncated)");
  }
  const std::size_t line_start =
      text.find_last_of('\n', text.size() - 2);  // newline before the crc line
  if (line_start == std::string_view::npos) return corrupt("no crc line");
  const std::string_view payload = text.substr(0, line_start + 1);
  std::string crc_line{text.substr(line_start + 1)};
  crc_line.pop_back();  // trailing '\n'
  std::istringstream ls{crc_line};
  std::string key;
  std::string value;
  std::uint64_t recorded = 0;
  if (!(ls >> key >> value) || key != "crc" ||
      !codec::parse_u64(value, recorded) || recorded > 0xFFFFFFFFULL ||
      (ls >> key)) {
    return corrupt("malformed crc line");
  }
  if (crc32(payload) != static_cast<std::uint32_t>(recorded)) {
    return corrupt("payload does not match its crc (torn or tampered file)");
  }
  return payload;
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

struct ManifestEntry {
  std::string dataset;
  std::string file;
  std::uint32_t crc = 0;
  std::uint64_t size = 0;
};

std::string serialize_manifest(const std::vector<ManifestEntry>& entries) {
  std::ostringstream os;
  os << kManifestHeader << '\n';
  for (const ManifestEntry& e : entries) {
    os << "entry " << e.dataset << ' ' << e.file << ' ' << e.crc << ' '
       << e.size << '\n';
  }
  std::string payload = os.str();
  payload += "crc " + std::to_string(crc32(payload)) + '\n';
  return payload;
}

Result<std::vector<ManifestEntry>> parse_manifest(std::string_view text) {
  const Result<std::string_view> payload = strip_and_check_crc(text);
  if (!payload.is_ok()) return payload.status();
  std::istringstream is{std::string{payload.value()}};
  std::string line;
  if (!std::getline(is, line) || line != kManifestHeader) {
    return corrupt("missing manifest header");
  }
  std::vector<ManifestEntry> entries;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    std::string key;
    ManifestEntry e;
    std::string crc_text;
    std::string size_text;
    std::uint64_t crc = 0;
    if (!(ls >> key >> e.dataset >> e.file >> crc_text >> size_text) ||
        key != "entry" || !codec::parse_u64(crc_text, crc) ||
        crc > 0xFFFFFFFFULL || !codec::parse_u64(size_text, e.size) ||
        (ls >> key)) {
      return corrupt("malformed manifest entry: " + line);
    }
    e.crc = static_cast<std::uint32_t>(crc);
    entries.push_back(std::move(e));
  }
  return entries;
}

/// Reads the manifest, falling back to MANIFEST.prev when the current one is
/// missing or corrupt.  An empty result means no readable manifest exists.
std::vector<ManifestEntry> read_manifest_entries(const std::string& dir) {
  for (const char* name : {"MANIFEST", "MANIFEST.prev"}) {
    const Result<std::string> text = read_file(dir + "/" + name);
    if (!text.is_ok()) continue;
    Result<std::vector<ManifestEntry>> entries = parse_manifest(text.value());
    if (entries.is_ok()) return std::move(entries.value());
  }
  return {};
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
  std::ostringstream os;
  os << kCheckpointHeader << '\n';
  os << "dataset " << cp.dataset_name << '\n';
  os << "kind "
     << (kind == MeasurementKind::kTraceroute ? "traceroute" : "tcp") << '\n';
  os << "fingerprint " << fingerprint << '\n';
  os << "now_ms " << cp.now.since_start().total_millis() << '\n';
  os << "next_seq " << cp.next_seq << '\n';
  os << "episodes " << cp.episode_count << '\n';
  os << "injector_epoch " << cp.injector_epoch << '\n';
  os << "rng " << cp.rng_state[0] << ' ' << cp.rng_state[1] << ' '
     << cp.rng_state[2] << ' ' << cp.rng_state[3] << '\n';
  os << "server_rngs " << cp.server_rng_states.size() << '\n';
  for (const auto& s : cp.server_rng_states) {
    os << "r " << s[0] << ' ' << s[1] << ' ' << s[2] << ' ' << s[3] << '\n';
  }
  os << "pending " << cp.pending.size() << '\n';
  for (const CampaignEvent& ev : cp.pending) {
    os << "e " << static_cast<int>(ev.kind) << ' '
       << ev.t.since_start().total_millis() << ' ' << ev.seq << ' ' << ev.a
       << ' ' << ev.b << ' ' << ev.first.since_start().total_millis() << ' '
       << ev.episode << ' ' << ev.tried << '\n';
  }
  os << "measurements " << cp.measurements.size() << '\n';
  std::string payload = std::move(os).str();
  for (const Measurement& m : cp.measurements) {
    append_measurement(payload, m, kind);
  }
  payload += "crc " + std::to_string(crc32(payload)) + '\n';
  return payload;
}

Result<CampaignCheckpoint> parse_checkpoint(std::string_view text,
                                            MeasurementKind expected_kind,
                                            std::uint64_t expected_fingerprint) {
  const Result<std::string_view> payload = strip_and_check_crc(text);
  if (!payload.is_ok()) return payload.status();
  std::istringstream is{std::string{payload.value()}};
  std::string line;
  if (!std::getline(is, line) || line != kCheckpointHeader) {
    return corrupt("missing or unsupported header");
  }

  auto expect_field = [&](const char* key, std::string& value) -> bool {
    if (!std::getline(is, line)) return false;
    std::istringstream ls{line};
    std::string k;
    ls >> k;
    if (k != key) return false;
    std::getline(ls, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    return true;
  };

  CampaignCheckpoint cp;
  std::string value;
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
    return corrupt("unknown kind: " + value);
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

  if (!std::getline(is, line)) return corrupt("missing rng line");
  {
    std::istringstream ls{line};
    std::string key;
    std::string words[4];
    if (!(ls >> key >> words[0] >> words[1] >> words[2] >> words[3]) ||
        key != "rng" || (ls >> key)) {
      return corrupt("malformed rng line");
    }
    for (std::size_t k = 0; k < 4; ++k) {
      if (!codec::parse_u64(words[k], cp.rng_state[k])) {
        return corrupt("malformed rng state");
      }
    }
  }

  if (!expect_field("server_rngs", value) || !codec::parse_u64(value, u) ||
      u > kMaxServerRngs) {
    return corrupt("invalid server_rngs count");
  }
  cp.server_rng_states.reserve(u);
  for (std::uint64_t n = 0; n < u; ++n) {
    if (!std::getline(is, line)) return corrupt("truncated server rng list");
    std::istringstream ls{line};
    std::string key;
    std::string words[4];
    if (!(ls >> key >> words[0] >> words[1] >> words[2] >> words[3]) ||
        key != "r" || (ls >> key)) {
      return corrupt("malformed server rng line");
    }
    std::array<std::uint64_t, 4> state{};
    for (std::size_t k = 0; k < 4; ++k) {
      if (!codec::parse_u64(words[k], state[k])) {
        return corrupt("malformed server rng state");
      }
    }
    cp.server_rng_states.push_back(state);
  }

  if (!expect_field("pending", value) || !codec::parse_u64(value, u) ||
      u > kMaxPending) {
    return corrupt("invalid pending count");
  }
  cp.pending.reserve(u);
  for (std::uint64_t n = 0; n < u; ++n) {
    if (!std::getline(is, line)) return corrupt("truncated pending list");
    std::istringstream ls{line};
    std::string key;
    std::int64_t kind_v = 0;
    std::int64_t t_ms = 0;
    std::int64_t first_ms = 0;
    CampaignEvent ev;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t episode = 0;
    std::int64_t tried = 0;
    if (!(ls >> key >> kind_v >> t_ms >> ev.seq >> a >> b >> first_ms >>
          episode >> tried) ||
        key != "e" || (ls >> key)) {
      return corrupt("malformed pending event: " + line);
    }
    if (kind_v < 0 || kind_v >= kCampaignEventKindCount || t_ms < 0 ||
        first_ms < 0 || episode < -1 || tried < 0 || tried > 255 ||
        a < std::numeric_limits<std::int32_t>::min() ||
        a > std::numeric_limits<std::int32_t>::max() ||
        b < std::numeric_limits<std::int32_t>::min() ||
        b > std::numeric_limits<std::int32_t>::max() ||
        episode > std::numeric_limits<std::int32_t>::max()) {
      return corrupt("pending event out of range: " + line);
    }
    ev.kind = static_cast<CampaignEventKind>(kind_v);
    ev.t = SimTime::at(Duration::millis(t_ms));
    ev.first = SimTime::at(Duration::millis(first_ms));
    ev.a = static_cast<std::int32_t>(a);
    ev.b = static_cast<std::int32_t>(b);
    ev.episode = static_cast<std::int32_t>(episode);
    ev.tried = static_cast<std::int32_t>(tried);
    cp.pending.push_back(ev);
  }

  if (!expect_field("measurements", value) || !codec::parse_u64(value, u) ||
      u > kMaxMeasurements) {
    return corrupt("invalid measurements count");
  }
  cp.measurements.reserve(u);
  for (std::uint64_t n = 0; n < u; ++n) {
    if (!std::getline(is, line)) return corrupt("truncated measurement list");
    Measurement m;
    std::string error;
    if (!parse_measurement(line, kind, nullptr, m, &error)) {
      return corrupt(error);
    }
    cp.measurements.push_back(std::move(m));
  }
  if (std::getline(is, line)) return corrupt("trailing data after payload");
  return cp;
}

CheckpointLoad load_newest_checkpoint(const std::string& dir,
                                      const std::string& dataset,
                                      MeasurementKind kind,
                                      std::uint64_t fingerprint) {
  CheckpointLoad out;
  const std::string base = dir + "/" + sanitize_filename(dataset) + ".ckpt.";
  for (const int generation : {0, 1}) {
    const std::string path = base + std::to_string(generation);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const Result<std::string> text = read_file(path);
    if (!text.is_ok()) {
      out.discarded.push_back(path + ": " + text.status().message());
      continue;
    }
    Result<CampaignCheckpoint> parsed =
        parse_checkpoint(text.value(), kind, fingerprint);
    if (!parsed.is_ok()) {
      out.discarded.push_back(path + ": " + parsed.status().message());
      continue;
    }
    CampaignCheckpoint& cp = parsed.value();
    const bool newer =
        !out.checkpoint.has_value() || out.checkpoint->now < cp.now ||
        (out.checkpoint->now == cp.now && out.checkpoint->next_seq < cp.next_seq);
    if (newer) out.checkpoint = std::move(cp);
  }
  return out;
}

std::string CheckpointStore::generation_path(const std::string& dataset,
                                             int generation) const {
  return dir_ + "/" + sanitize_filename(dataset) + ".ckpt." +
         std::to_string(generation);
}

std::string CheckpointStore::manifest_path() const {
  return dir_ + "/MANIFEST";
}

Status CheckpointStore::save(const CampaignCheckpoint& cp,
                             MeasurementKind kind, std::uint64_t fingerprint) {
  const Status made = ensure_directory(dir_);
  if (!made.is_ok()) return made;

  // First save for this dataset: continue alternating from whatever
  // generation currently holds the newest valid checkpoint.
  int* next = nullptr;
  for (auto& [name, generation] : next_generation_) {
    if (name == cp.dataset_name) next = &generation;
  }
  if (next == nullptr) {
    int start = 0;
    SimTime newest = SimTime::start();
    bool found = false;
    for (const int generation : {0, 1}) {
      const std::string path = generation_path(cp.dataset_name, generation);
      const Result<std::string> text = read_file(path);
      if (!text.is_ok()) continue;
      const Result<CampaignCheckpoint> parsed =
          parse_checkpoint(text.value(), kind, fingerprint);
      if (!parsed.is_ok()) continue;
      if (!found || newest < parsed.value().now) {
        newest = parsed.value().now;
        start = 1 - generation;
        found = true;
      }
    }
    next_generation_.emplace_back(cp.dataset_name, start);
    next = &next_generation_.back().second;
  }

  const std::string path = generation_path(cp.dataset_name, *next);
  const std::string contents = serialize_checkpoint(cp, kind, fingerprint);
  const Status wrote = write_file_atomic(path, contents);
  if (!wrote.is_ok()) return wrote;
  *next = 1 - *next;

  // Manifest: preserve the previous one, then record the new entry.  The
  // manifest is advisory (discovery + cross-file integrity); the checkpoint
  // files are self-validating, so a crash between the file write and the
  // manifest write costs nothing on resume.
  const Result<std::string> old_manifest = read_file(manifest_path());
  if (old_manifest.is_ok()) {
    const Status kept =
        write_file_atomic(dir_ + "/MANIFEST.prev", old_manifest.value());
    if (!kept.is_ok()) return kept;
  }
  std::vector<ManifestEntry> entries = read_manifest_entries(dir_);
  const std::string file =
      sanitize_filename(cp.dataset_name) + ".ckpt." +
      std::to_string(1 - *next);  // the generation just written
  ManifestEntry entry;
  entry.dataset = cp.dataset_name;
  entry.file = file;
  entry.crc = crc32(contents);
  entry.size = contents.size();
  bool replaced = false;
  for (ManifestEntry& e : entries) {
    if (e.dataset == entry.dataset) {
      e = entry;
      replaced = true;
    }
  }
  if (!replaced) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.dataset < b.dataset;
            });
  return write_file_atomic(manifest_path(), serialize_manifest(entries));
}

}  // namespace pathsel::meas
