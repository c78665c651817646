#include "meas/serialize.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/metrics.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts: far above anything the collectors
// produce, far below anything that could exhaust memory while "parsing".
constexpr std::size_t kMaxHosts = 1'000'000;
constexpr std::size_t kMaxAsPath = 1024;

// write_dataset_chunks hands its sink about this much text at a time, and
// the read_dataset stream adapter reads blocks of this size.
constexpr std::size_t kChunk = 64 * 1024;

// Longest row text apart from its AS path: the tag, five integers, three
// (lost, rtt) pairs or three transfer reals, the fault-aware extras and the
// newline.
constexpr std::size_t kMaxRowText =
    1 + 5 * 21 + 3 * (3 + codec::kMaxRealText) + 16;

// Fewest bytes a valid row of either kind takes ("m 0 0 1 0 0 0 0 0\n" for
// tcp): a cap on the rows a text of a given size can hold.
constexpr std::size_t kMinRowBytes = 18;

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

// ---- writer ---------------------------------------------------------------

using codec::append_field;

void append_header(std::string& out, const Dataset& dataset) {
  out += kDatasetHeader;
  out += '\n';
  codec::append_line(out, "name", dataset.name);
  codec::append_line(out, "kind",
                     dataset.kind == MeasurementKind::kTraceroute
                         ? "traceroute"
                         : "tcp");
  codec::append_line(out, "duration_ms", dataset.duration.total_millis());
  codec::append_line(out, "first_sample_loss_only",
                     dataset.first_sample_loss_only ? 1 : 0);
  codec::append_line(out, "episodes", dataset.episode_count);
  out += "hosts";
  append_field(out, dataset.hosts.size());
  for (const auto h : dataset.hosts) append_field(out, h.value());
  out += '\n';
}

// A row's AS path fields, " <n> <as>...".
void append_path(std::string& out, std::span<const topo::AsId> path) {
  append_field(out, path.size());
  for (const auto as : path) append_field(out, as.value());
}

template <typename Int>
char* put_int(char* p, Int v) {
  *p++ = ' ';
  return std::to_chars(p, p + 20, v).ptr;
}

char* put_real(char* p, double v) {
  *p++ = ' ';
  return codec::format_real(p, v);
}

// Writes one row at `p`, which has room for kMaxRowText + path.size()
// characters; `path` is the row's AS path text (traceroute rows only).
char* format_row(char* p, const Measurement& m, MeasurementKind kind,
                 std::string_view path) {
  *p++ = 'm';
  p = put_int(p, m.when.since_start().total_millis());
  p = put_int(p, m.src.value());
  p = put_int(p, m.dst.value());
  p = put_int(p, m.episode);
  *p++ = ' ';
  *p++ = m.completed ? '1' : '0';
  if (kind == MeasurementKind::kTraceroute) {
    for (const auto& s : m.samples) {
      *p++ = ' ';
      *p++ = s.lost ? '1' : '0';
      p = put_real(p, s.rtt_ms);
    }
    std::memcpy(p, path.data(), path.size());
    p += path.size();
  } else {
    p = put_real(p, m.bandwidth_kBps);
    p = put_real(p, m.tcp_rtt_ms);
    p = put_real(p, m.tcp_loss_rate);
  }
  // Fault-aware extras; omitted at their defaults so fault-free datasets
  // keep the historical byte stream.
  if (m.failure != FailureReason::kNone) {
    *p++ = ' ';
    *p++ = 'f';
    p = put_int(p, static_cast<int>(m.failure));
  }
  if (m.attempts > 1) {
    *p++ = ' ';
    *p++ = 'a';
    p = put_int(p, static_cast<int>(m.attempts));
  }
  *p++ = '\n';
  return p;
}

// The row text of every path in a pool, formatted once per write.
class PathTexts {
 public:
  explicit PathTexts(const AsPathPool& pool) {
    begins_.reserve(pool.size() + 1);
    for (AsPathId id = 0; id < pool.size(); ++id) {
      begins_.push_back(text_.size());
      const std::size_t before = text_.size();
      append_path(text_, pool.at(id));
      longest_ = std::max(longest_, text_.size() - before);
    }
    begins_.push_back(text_.size());
  }

  std::string_view operator[](AsPathId id) const {
    return std::string_view{text_}.substr(begins_[id],
                                          begins_[id + 1] - begins_[id]);
  }
  [[nodiscard]] std::size_t longest() const noexcept { return longest_; }

 private:
  std::string text_;
  std::vector<std::size_t> begins_;
  std::size_t longest_ = 0;
};

// ---- reader ---------------------------------------------------------------

// The host ids a dataset declares: a bitmap over [0, max id] when that is
// not much larger than the list, a sorted list otherwise.
class HostSet {
 public:
  explicit HostSet(const std::vector<topo::HostId>& hosts) {
    std::int32_t top = -1;
    for (const auto h : hosts) top = std::max(top, h.value());
    const auto span = static_cast<std::size_t>(top) + 1;
    if (span <= std::max<std::size_t>(1 << 16, 64 * hosts.size())) {
      bits_.assign((span + 63) / 64, 0);
      for (const auto h : hosts) {
        bits_[h.index() / 64] |= std::uint64_t{1} << (h.index() % 64);
      }
    } else {
      sorted_.reserve(hosts.size());
      for (const auto h : hosts) sorted_.push_back(h.value());
      std::sort(sorted_.begin(), sorted_.end());
    }
  }

  [[nodiscard]] bool contains(std::int32_t id) const noexcept {
    if (id < 0) return false;
    if (!sorted_.empty()) {
      return std::binary_search(sorted_.begin(), sorted_.end(), id);
    }
    const auto i = static_cast<std::size_t>(id);
    return i / 64 < bits_.size() && ((bits_[i / 64] >> (i % 64)) & 1) != 0;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::int32_t> sorted_;
};

constexpr std::uint64_t kPow10[] = {
    1, 10, 100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000};

// How many decimal digits start the 8 bytes at `p`, with their value in
// `value`: one little-endian load and no branch per digit.
inline int leading_digits8(const char* p, std::uint64_t& value) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  // Digit bytes become 0..9.  A byte is not a digit when it is >= 10, which
  // adding 0x76 to its low seven bits (no carry out) or its own top bit
  // shows in bit 7.
  const std::uint64_t t = w ^ 0x3030303030303030ULL;
  const std::uint64_t stop =
      (t | ((t & 0x7f7f7f7f7f7f7f7fULL) + 0x7676767676767676ULL)) &
      0x8080808080808080ULL;
  const int n = stop == 0 ? 8 : std::countr_zero(stop) / 8;
  if (n == 0) {
    value = 0;
    return 0;
  }
  // The digits move to the top bytes, so the bytes below read as leading
  // zeros; then pairs, quads and octets of digits combine.
  std::uint64_t v = t << (8 * (8 - n));
  v = (v * 10 + (v >> 8)) & 0x00ff00ff00ff00ffULL;
  v = (v * 100 + (v >> 16)) & 0x0000ffff0000ffffULL;
  value = (v * 10000 + (v >> 32)) & 0xffffffffULL;
  return n;
}

// Reads the run of decimal digits at [p, end) into `value` and returns its
// end.  It stops after 19 digits: a run that long does not fit `value`,
// which then holds no number.
inline const char* scan_digits(const char* p, const char* end,
                               std::uint64_t& value) noexcept {
  const char* const first = p;
  std::uint64_t v = 0;
  while (std::endian::native == std::endian::little && end - p >= 8) {
    std::uint64_t part = 0;
    const int n = leading_digits8(p, part);
    v = v * kPow10[n] + part;
    p += n;
    if (n < 8 || p - first > 18) {
      value = v;
      return p;
    }
  }
  while (p != end && p - first < 19 &&
         static_cast<unsigned char>(*p - '0') < 10) {
    v = 10 * v + static_cast<unsigned char>(*p - '0');
    ++p;
  }
  value = v;
  return p;
}

// Hashes strings and views alike, for lookups by view.
struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

// A cursor over one line's tokens in the token language of util/codec.h:
// each read skips a run of whitespace and then takes one token whole.
class Fields {
 public:
  explicit Fields(std::string_view line) noexcept
      : p_{line.data()}, end_{line.data() + line.size()} {}

  // The next token; empty once the line is used up.
  std::string_view token() noexcept {
    skip_space();
    const char* const begin = p_;
    while (p_ != end_ && !codec::is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  // The next token as an integer.  A token of at most 18 digits, after a
  // '-' for a signed field, is read in place, eight digits at a time (one
  // digit by itself); any other goes whole to codec::parse_int.
  template <std::integral Int>
  bool integer(Int& out) noexcept {
    skip_space();
    if (end_ - p_ >= 2 && static_cast<unsigned char>(*p_ - '0') < 10 &&
        codec::is_space(p_[1])) {
      out = static_cast<Int>(*p_ - '0');
      ++p_;
      return true;
    }
    const bool minus = std::is_signed_v<Int> && p_ != end_ && *p_ == '-';
    const char* const digits = p_ + (minus ? 1 : 0);
    std::uint64_t v = 0;
    const char* const stop = scan_digits(digits, end_, v);
    if (stop != digits && stop - digits <= 18 &&
        (stop == end_ || codec::is_space(*stop)) &&
        v <= static_cast<std::uint64_t>(std::numeric_limits<Int>::max())) {
      out = static_cast<Int>(minus ? 0 - v : v);
      p_ = stop;
      return true;
    }
    return codec::parse_int(token(), out);
  }

  // The next token as a real.  One that starts with a digit and ends
  // where from_chars stops is read in place; any other goes whole to
  // codec::parse_real, which from_chars agrees with on the first kind.
  bool real(double& out) {
    skip_space();
    if (p_ != end_ && static_cast<unsigned char>(*p_ - '0') < 10) {
      double v = 0.0;
      const std::from_chars_result r =
          std::from_chars(p_, end_, v, std::chars_format::general);
      if (r.ec == std::errc{} && (r.ptr == end_ || codec::is_space(*r.ptr))) {
        out = v;
        p_ = r.ptr;
        return true;
      }
    }
    return codec::parse_real(token(), out);
  }

  // The text not read yet, and a step over the first `n` bytes of it.
  [[nodiscard]] std::string_view rest() const noexcept {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }
  void advance(std::size_t n) noexcept { p_ += n; }

 private:
  // One space is how the writer separates fields.
  void skip_space() noexcept {
    if (p_ != end_ && *p_ == ' ') ++p_;
    while (p_ != end_ && codec::is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

// The one row reader, for .ds rows and checkpoint rows alike: the token
// language with the checks below, in this order.
class RowReader {
 public:
  // `hosts` (nullable) restricts src/dst to declared ids; rows intern their
  // AS paths into `paths`.
  RowReader(MeasurementKind kind, const HostSet* hosts, AsPathPool& paths)
      : kind_{kind}, hosts_{hosts}, paths_{paths} {}

  // Reads `line` into `m`, a default-constructed row; a line whose first
  // token is not "m" is rejected with `bad_tag` before the line.
  bool read(std::string_view line, const char* bad_tag, Measurement& m,
            std::string* error) {
    auto reject = [&](const char* what) {
      return fail(error, what + std::string{line});
    };
    Fields f{line};
    if (f.token() != "m") return reject(bad_tag);
    std::int64_t when_ms = 0;
    std::int32_t src = 0;
    std::int32_t dst = 0;
    int completed = 0;
    if (!f.integer(when_ms) || !f.integer(src) || !f.integer(dst) ||
        !f.integer(m.episode) || !f.integer(completed)) {
      return reject("malformed measurement line: ");
    }
    if (when_ms < 0) return reject("negative measurement time: ");
    if (hosts_ != nullptr &&
        (!hosts_->contains(src) || !hosts_->contains(dst))) {
      return reject("measurement references undeclared host: ");
    }
    if (src < 0 || dst < 0) return reject("negative host id: ");
    if (src == dst) return reject("measurement with src == dst: ");
    if (m.episode < -1 || completed < 0 || completed > 1) {
      return reject("malformed measurement line: ");
    }
    m.when = SimTime::at(Duration::millis(when_ms));
    m.src = topo::HostId{src};
    m.dst = topo::HostId{dst};
    m.completed = completed != 0;
    if (kind_ == MeasurementKind::kTraceroute) {
      for (auto& s : m.samples) {
        int lost = 0;
        if (!f.integer(lost) || !f.real(s.rtt_ms)) {
          return reject("malformed traceroute samples: ");
        }
        if (lost < 0 || lost > 1 || !finite_nonneg(s.rtt_ms)) {
          return reject("sample out of range: ");
        }
        s.lost = lost != 0;
      }
      // A row whose text from here on was met before starts with the path
      // that text started with; only a text not met yet has its path read.
      const std::string_view rest = f.rest();
      if (const auto seen = path_ids_.find(rest); seen != path_ids_.end()) {
        m.path = seen->second.id;
        f.advance(seen->second.length);
      } else {
        std::int64_t as_count = 0;
        if (!f.integer(as_count)) return reject("missing AS path length: ");
        if (as_count < 0 ||
            as_count > static_cast<std::int64_t>(kMaxAsPath)) {
          return reject("AS path length out of range: ");
        }
        ases_.clear();
        for (std::int64_t i = 0; i < as_count; ++i) {
          std::int32_t as = 0;
          if (!f.integer(as)) {
            return reject("AS path shorter than its count: ");
          }
          if (as < 0) return reject("negative AS id: ");
          ases_.push_back(topo::AsId{as});
        }
        m.path = paths_.intern(ases_);
        path_ids_.emplace(rest,
                          PathText{m.path, rest.size() - f.rest().size()});
      }
    } else {
      if (!f.real(m.bandwidth_kBps) || !f.real(m.tcp_rtt_ms) ||
          !f.real(m.tcp_loss_rate)) {
        return reject("malformed transfer fields: ");
      }
      if (!finite_nonneg(m.bandwidth_kBps) || !finite_nonneg(m.tcp_rtt_ms) ||
          !finite_nonneg(m.tcp_loss_rate) || m.tcp_loss_rate > 1.0) {
        return reject("transfer fields out of range: ");
      }
    }
    // Optional fault-aware tokens, each at most once, in any order.
    bool saw_failure = false;
    bool saw_attempts = false;
    for (std::string_view token = f.token(); !token.empty();
         token = f.token()) {
      std::int64_t v = 0;
      if (!f.integer(v)) return reject("malformed trailing token: ");
      if (token == "f" && !saw_failure) {
        if (v < 1 || v >= static_cast<std::int64_t>(kFailureReasonCount)) {
          return reject("failure reason out of range: ");
        }
        if (m.completed) {
          return reject("completed measurement with a failure reason: ");
        }
        m.failure = static_cast<FailureReason>(v);
        saw_failure = true;
      } else if (token == "a" && !saw_attempts) {
        if (v < 1 || v > 255) return reject("attempts out of range: ");
        m.attempts = static_cast<std::uint8_t>(v);
        saw_attempts = true;
      } else {
        return reject("unexpected trailing token: ");
      }
    }
    return true;
  }

 private:
  MeasurementKind kind_;
  const HostSet* hosts_;
  AsPathPool& paths_;
  std::vector<topo::AsId> ases_;  // scratch for one row's AS path
  // The path a row's text after its samples starts with, and its length.
  struct PathText {
    AsPathId id;
    std::size_t length;
  };
  // A memo of every such text met so far.
  std::unordered_map<std::string, PathText, TextHash, std::equal_to<>>
      path_ids_;
};

// The one dataset parser.  It takes the text as whole lines in one or more
// feed() calls, then the unterminated last line (if any) in finish(), and
// checks everything in the order the lines arrive.
class DatasetParser {
 public:
  // `expected_bytes` is the text's full size when known (0 otherwise): the
  // row vector is sized from it once the first rows show their length.
  DatasetParser(std::string* error, std::uint64_t expected_bytes)
      : error_{error}, expected_bytes_{expected_bytes} {}

  // Parses `text`, whole lines each ending in '\n'; false once rejected.
  bool feed(std::string_view text) {
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p != end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (!take_line({p, static_cast<std::size_t>(nl - p)})) return false;
      p = nl + 1;
      if (ds_.measurements.size() == kSampleRows) {
        reserve(bytes_ + static_cast<std::uint64_t>(p - text.data()));
      }
    }
    bytes_ += text.size();
    return true;
  }

  // Parses `tail`, the text after the last '\n' (empty when the text ended
  // on a line boundary), and hands over the dataset; nullopt once rejected.
  std::optional<Dataset> finish(std::string_view tail) {
    if (!tail.empty() && !take_line(tail)) return std::nullopt;
    if (stage_ != Stage::kRows) {
      fail(error_, missing_text());
      return std::nullopt;
    }
    // Fault-aware campaigns (meas/collector with a FaultPlan or retries)
    // stamp a reason onto every failed row; legacy fault-free campaigns
    // stamp nothing.  Mixing the two within one file can only come from
    // corruption (a torn rewrite, spliced runs), so it is rejected after
    // the scan.
    if (any_fault_token_ && any_failed_without_reason_) {
      fail(error_,
           "fault-aware dataset has failed measurements without a failure "
           "reason (file mixes fault-aware and legacy rows)");
      return std::nullopt;
    }
    // Every writer ends every line with '\n', so a last line without one is
    // a file torn mid-line, whose final token may be a prefix of its value.
    if (!tail.empty()) {
      fail(error_, "torn file: last line has no newline");
      return std::nullopt;
    }
    MetricsRegistry& metrics = MetricsRegistry::global();
    metrics.count("meas.dataset.records_read", ds_.measurements.size());
    metrics.count("meas.dataset.bytes_read", bytes_);
    return std::move(ds_);
  }

 private:
  // The line the parser expects next: the fixed header block in order,
  // then rows.
  enum class Stage {
    kHeader,
    kName,
    kKind,
    kDuration,
    kFirstSampleLossOnly,
    kEpisodes,
    kHosts,
    kRows
  };

  // Rows whose length sizes the row vector.
  static constexpr std::size_t kSampleRows = 256;

  // Reserves rows for the expected text at the bytes per row seen so far
  // (`seen` bytes, the header included), with a quarter to spare.
  void reserve(std::uint64_t seen) {
    if (expected_bytes_ <= seen) return;
    const std::uint64_t rows = kSampleRows * expected_bytes_ / seen;
    ds_.measurements.reserve(static_cast<std::size_t>(
        std::min(rows + rows / 4, expected_bytes_ / kMinRowBytes)));
  }

  bool take_line(std::string_view line) {
    if (stage_ == Stage::kRows) return line.empty() || row(line);
    return header_line(line);
  }

  bool row(std::string_view line) {
    Measurement& m = ds_.measurements.emplace_back();
    if (!rows_->read(line, "unexpected line: ", m, error_)) return false;
    if (m.failure != FailureReason::kNone || m.attempts > 1) {
      any_fault_token_ = true;
    }
    if (!m.completed && m.failure == FailureReason::kNone) {
      any_failed_without_reason_ = true;
    }
    return true;
  }

  // What finish() reports when the text ends before the rows begin.
  [[nodiscard]] std::string missing_text() const {
    switch (stage_) {
      case Stage::kHeader: return "missing or unsupported header";
      case Stage::kName: return "missing field name";
      case Stage::kKind: return "missing field kind";
      case Stage::kDuration: return "missing field duration_ms";
      case Stage::kFirstSampleLossOnly:
        return "missing field first_sample_loss_only";
      case Stage::kEpisodes: return "missing field episodes";
      case Stage::kHosts:
      case Stage::kRows: break;
    }
    return "missing hosts line";
  }

  bool header_line(std::string_view line) {
    std::string_view value;
    auto field = [&](const char* key) {
      if (codec::split_field(line, key, value)) return true;
      return fail(error_, std::string("expected field ") + key);
    };
    std::int64_t parsed = 0;
    switch (stage_) {
      case Stage::kHeader:
        if (line != kDatasetHeader) {
          return fail(error_, "missing or unsupported header");
        }
        stage_ = Stage::kName;
        return true;
      case Stage::kName:
        if (!field("name")) return false;
        ds_.name = value;
        stage_ = Stage::kKind;
        return true;
      case Stage::kKind:
        if (!field("kind")) return false;
        if (value == "traceroute") {
          ds_.kind = MeasurementKind::kTraceroute;
        } else if (value == "tcp") {
          ds_.kind = MeasurementKind::kTcpTransfer;
        } else {
          return fail(error_, "unknown kind: " + std::string{value});
        }
        stage_ = Stage::kDuration;
        return true;
      case Stage::kDuration:
        if (!field("duration_ms")) return false;
        if (!codec::parse_i64(value, parsed) || parsed < 0) {
          return fail(error_, "invalid duration_ms: " + std::string{value});
        }
        ds_.duration = Duration::millis(parsed);
        stage_ = Stage::kFirstSampleLossOnly;
        return true;
      case Stage::kFirstSampleLossOnly:
        if (!field("first_sample_loss_only")) return false;
        if (value != "0" && value != "1") {
          return fail(error_,
                      "invalid first_sample_loss_only: " + std::string{value});
        }
        ds_.first_sample_loss_only = value == "1";
        stage_ = Stage::kEpisodes;
        return true;
      case Stage::kEpisodes:
        if (!field("episodes")) return false;
        if (!codec::parse_i64(value, parsed) || parsed < 0 ||
            parsed > std::numeric_limits<std::int32_t>::max()) {
          return fail(error_, "invalid episodes: " + std::string{value});
        }
        ds_.episode_count = static_cast<std::int32_t>(parsed);
        stage_ = Stage::kHosts;
        return true;
      case Stage::kHosts:
        if (!hosts_line(line)) return false;
        hosts_.emplace(ds_.hosts);
        rows_.emplace(ds_.kind, &*hosts_, ds_.paths);
        stage_ = Stage::kRows;
        return true;
      case Stage::kRows: break;
    }
    return false;
  }

  bool hosts_line(std::string_view line) {
    codec::Tokens ls{line};
    std::int64_t count = 0;
    if (ls.next() != "hosts" || !ls.next_int(count)) {
      return fail(error_, "malformed hosts line");
    }
    if (count < 0 || count > static_cast<std::int64_t>(kMaxHosts)) {
      return fail(error_, "hosts count out of range");
    }
    std::unordered_set<std::int32_t> seen;
    for (std::int64_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      if (!ls.next_int(id)) {
        return fail(error_, "hosts line shorter than its count");
      }
      if (id < 0) return fail(error_, "negative host id");
      if (!seen.insert(id).second) return fail(error_, "duplicate host id");
      ds_.hosts.push_back(topo::HostId{id});
    }
    if (!ls.next().empty()) {
      return fail(error_, "trailing tokens on hosts line");
    }
    return true;
  }

  std::string* error_;
  std::uint64_t expected_bytes_;
  Dataset ds_;
  Stage stage_ = Stage::kHeader;
  std::optional<HostSet> hosts_;   // set with the hosts line
  std::optional<RowReader> rows_;  // set with the hosts line
  std::uint64_t bytes_ = 0;
  bool any_fault_token_ = false;
  bool any_failed_without_reason_ = false;
};

}  // namespace

void append_measurement(std::string& out, const Measurement& m,
                        MeasurementKind kind, const AsPathPool& paths) {
  std::string path;
  if (kind == MeasurementKind::kTraceroute) {
    append_path(path, paths.at(m.path));
  }
  const std::size_t before = out.size();
  out.resize(before + kMaxRowText + path.size());
  char* const first = out.data() + before;
  out.resize(before + static_cast<std::size_t>(
                          format_row(first, m, kind, path) - first));
}

void write_dataset_chunks(
    const Dataset& dataset,
    const std::function<void(std::string_view)>& sink) {
  ScopedTimer timer{"meas.dataset.write"};
  std::string header;
  append_header(header, dataset);
  std::uint64_t bytes = header.size();
  sink(header);

  const bool traceroute = dataset.kind == MeasurementKind::kTraceroute;
  const PathTexts texts{dataset.paths};
  // Rows are formatted straight into this buffer, flushed whenever it holds
  // at least a chunk; the slack fits one more row of any path.
  const std::size_t capacity = kChunk + kMaxRowText + texts.longest();
  const std::unique_ptr<char[]> buf{new char[capacity]};
  char* p = buf.get();
  auto flush = [&] {
    const auto n = static_cast<std::size_t>(p - buf.get());
    bytes += n;
    sink({buf.get(), n});
    p = buf.get();
  };
  for (const auto& m : dataset.measurements) {
    p = format_row(p, m, dataset.kind, traceroute ? texts[m.path] : "");
    if (static_cast<std::size_t>(p - buf.get()) >= kChunk) flush();
  }
  if (p != buf.get()) flush();
  MetricsRegistry& metrics = MetricsRegistry::global();
  metrics.count("meas.dataset.records_written", dataset.measurements.size());
  metrics.count("meas.dataset.bytes_written", bytes);
}

void write_dataset(std::ostream& os, const Dataset& dataset) {
  write_dataset_chunks(dataset, [&os](std::string_view text) {
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
}

std::optional<Dataset> read_dataset(std::istream& is, std::string* error) {
  ScopedTimer timer{"meas.dataset.read"};
  std::streambuf* in = is.rdbuf();
  // The bytes the stream says are ready, to size the row vector.
  const std::streamsize ready = in == nullptr ? 0 : in->in_avail();
  DatasetParser parser{error, ready > 0 ? static_cast<std::uint64_t>(ready)
                                        : std::uint64_t{0}};
  if (in == nullptr) return parser.finish({});
  // The carried partial line, then the next block; a line longer than a
  // block grows the buffer.
  std::string buf(2 * kChunk, '\0');
  std::size_t carried = 0;
  for (;;) {
    if (buf.size() - carried < kChunk) buf.resize(2 * buf.size());
    const std::streamsize got = in->sgetn(
        buf.data() + carried, static_cast<std::streamsize>(kChunk));
    if (got <= 0) break;
    const std::string_view text{buf.data(),
                                carried + static_cast<std::size_t>(got)};
    const std::size_t cut = text.rfind('\n');
    if (cut == std::string_view::npos) {  // no whole line yet
      carried = text.size();
      continue;
    }
    if (!parser.feed(text.substr(0, cut + 1))) return std::nullopt;
    carried = text.size() - (cut + 1);
    std::memmove(buf.data(), buf.data() + cut + 1, carried);
  }
  is.setstate(std::ios::eofbit);
  return parser.finish({buf.data(), carried});
}

bool parse_measurements(codec::Lines& lines, std::uint64_t count,
                        MeasurementKind kind, AsPathPool& paths,
                        std::vector<Measurement>& out, std::string* error) {
  RowReader rows{kind, nullptr, paths};
  std::string_view line;
  for (std::uint64_t n = 0; n < count; ++n) {
    if (!lines.next(line)) return fail(error, "truncated measurement list");
    if (!rows.read(line, "malformed measurement line: ", out.emplace_back(),
                   error)) {
      return false;
    }
  }
  return true;
}

Result<Dataset> load_dataset(const std::string& path) {
  const Result<std::string> text = read_file(path);
  if (!text.is_ok()) return text.status();
  const std::string_view all = text.value();
  std::string error;
  std::optional<Dataset> ds;
  {
    ScopedTimer timer{"meas.dataset.read"};
    DatasetParser parser{&error, all.size()};
    const std::size_t cut = all.rfind('\n');
    const std::size_t whole = cut == std::string_view::npos ? 0 : cut + 1;
    if (parser.feed(all.substr(0, whole))) {
      ds = parser.finish(all.substr(whole));
    }
  }
  if (!ds.has_value()) {
    return Status::error(ErrorCode::kParseError, path + ": " + error);
  }
  return std::move(*ds);
}

Status save_dataset(const std::string& path, const Dataset& dataset) {
  std::vector<std::string> chunks;
  write_dataset_chunks(dataset, [&chunks](std::string_view chunk) {
    chunks.emplace_back(chunk);
  });
  const std::vector<std::string_view> parts{chunks.begin(), chunks.end()};
  return write_file_atomic(path, parts);
}

}  // namespace pathsel::meas
