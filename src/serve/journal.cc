#include "serve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "util/atomic_io.h"
#include "util/codec.h"

namespace pathsel::serve {

namespace {

std::string encode_record_payload(const JournalRecord& r) {
  codec::Writer w{kRecordPayloadBytes};
  w.put_u64(r.seq);
  w.put_i32(r.update.a.value());
  w.put_i32(r.update.b.value());
  w.put_f64(r.update.rtt_ms);
  w.put_u8(r.update.lost ? 1 : 0);
  return std::move(w).take();
}

Status io_error(const std::string& what, const std::string& path) {
  return Status::error(ErrorCode::kIoError,
                       what + " " + path + ": " + std::strerror(errno));
}

void put_summary_raw(codec::Writer& w, const stats::Summary::Raw& raw) {
  w.put_i64(raw.n);
  w.put_f64(raw.mean);
  w.put_f64(raw.m2);
  w.put_f64(raw.min);
  w.put_f64(raw.max);
}

stats::Summary::Raw take_summary_raw(codec::Cursor& c) {
  stats::Summary::Raw raw;
  raw.n = c.take_i64("summary n");
  raw.mean = c.take_f64("summary mean");
  raw.m2 = c.take_f64("summary m2");
  raw.min = c.take_f64("summary min");
  raw.max = c.take_f64("summary max");
  return raw;
}

constexpr std::size_t kEdgeStateBytes = 4 + 4 + 8 + 2 * 5 * 8;

}  // namespace

Result<EdgeUpdate> parse_update(std::string_view spec) {
  // Extra or missing fields are their own errors.
  std::vector<std::string> tokens;
  codec::Tokens ls{spec};
  for (std::string_view t = ls.next(); !t.empty(); t = ls.next()) {
    tokens.emplace_back(t);
  }

  auto bad = [&](const std::string& why) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "malformed update '" + std::string{spec} + "': " + why);
  };
  if (tokens.size() != 5) {
    return bad("want 'sample A B RTT LOST' (5 fields, got " +
               std::to_string(tokens.size()) + ")");
  }
  if (tokens[0] != "sample") {
    return bad("unknown update kind '" + tokens[0] + "' (want 'sample')");
  }

  auto parse_host = [&](const std::string& tok, const char* which,
                        std::int32_t& out) -> Status {
    std::int64_t v = 0;
    if (!codec::parse_int(tok, v) || v < 0 ||
        v > std::numeric_limits<std::int32_t>::max()) {
      return bad(std::string{which} + " host id '" + tok +
                 "' is not a non-negative integer");
    }
    out = static_cast<std::int32_t>(v);
    return Status::ok();
  };
  std::int32_t a = 0;
  std::int32_t b = 0;
  if (Status s = parse_host(tokens[1], "first", a); !s.is_ok()) return s;
  if (Status s = parse_host(tokens[2], "second", b); !s.is_ok()) return s;
  if (a == b) return bad("a path needs two distinct hosts");

  double rtt = 0.0;
  if (!codec::parse_real(tokens[3], rtt) || !std::isfinite(rtt) ||
      rtt < 0.0) {
    return bad("rtt '" + tokens[3] + "' is not a finite non-negative number");
  }
  if (tokens[4] != "0" && tokens[4] != "1") {
    return bad("lost flag '" + tokens[4] + "' must be 0 or 1");
  }

  EdgeUpdate u;
  u.a = topo::HostId{std::min(a, b)};
  u.b = topo::HostId{std::max(a, b)};
  u.rtt_ms = rtt;
  u.lost = tokens[4] == "1";
  return u;
}

std::string serialize_journal_header(std::uint64_t fingerprint,
                                     std::uint64_t generation,
                                     std::uint64_t start_seq) {
  codec::Writer w{kJournalHeaderBytes};
  w.put_u32(kJournalMagic);
  w.put_u32(kJournalVersion);
  w.put_u64(fingerprint);
  w.put_u64(generation);
  w.put_u64(start_seq);
  return std::move(w).seal();
}

std::string serialize_journal_record(const JournalRecord& r) {
  const std::string payload = encode_record_payload(r);
  codec::Writer w{8 + payload.size()};
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(crc32(payload));
  w.put_bytes(payload);
  return std::move(w).take();
}

JournalScan scan_journal(std::string_view bytes, std::uint64_t fingerprint) {
  JournalScan scan;
  codec::Cursor c{bytes};
  const std::string_view header =
      c.take_bytes(kJournalHeaderBytes, "journal header");
  if (c.failed()) {
    scan.reject_reason = "file shorter than the journal header";
    return scan;
  }
  codec::Cursor h{header};
  const std::uint32_t magic = h.take_u32("magic");
  const std::uint32_t version = h.take_u32("version");
  const std::uint64_t fp = h.take_u64("fingerprint");
  scan.generation = h.take_u64("generation");
  scan.start_seq = h.take_u64("start_seq");
  if (magic != kJournalMagic) {
    scan.reject_reason = "bad magic (not a PSJL journal)";
    return scan;
  }
  if (version != kJournalVersion) {
    scan.reject_reason =
        "journal version " + std::to_string(version) +
        " is newer than this binary's " + std::to_string(kJournalVersion);
    return scan;
  }
  if (!codec::unseal(header)) {
    scan.reject_reason = "journal header CRC mismatch";
    return scan;
  }
  if (fp != fingerprint) {
    scan.reject_reason = "journal belongs to a different dataset/options "
                         "(fingerprint mismatch)";
    return scan;
  }
  scan.usable = true;
  scan.valid_bytes = kJournalHeaderBytes;

  std::uint64_t prev_seq = 0;
  while (c.remaining() > 0) {
    if (c.remaining() < 8) {
      scan.truncated = true;
      scan.truncation_reason = "torn record frame (partial length/CRC)";
      break;
    }
    const std::uint32_t len = c.take_u32("record length");
    const std::uint32_t rec_crc = c.take_u32("record CRC");
    if (len != kRecordPayloadBytes) {
      scan.truncated = true;
      scan.truncation_reason =
          "record length " + std::to_string(len) + " is not the v1 payload size";
      break;
    }
    const std::string_view payload = c.take_bytes(len, "record payload");
    if (c.failed()) {
      scan.truncated = true;
      scan.truncation_reason = "torn record payload (file ends mid-record)";
      break;
    }
    if (crc32(payload) != rec_crc) {
      scan.truncated = true;
      scan.truncation_reason = "record CRC mismatch";
      break;
    }
    codec::Cursor p{payload};
    JournalRecord r;
    r.seq = p.take_u64("seq");
    r.update.a = topo::HostId{p.take_i32("host a")};
    r.update.b = topo::HostId{p.take_i32("host b")};
    r.update.rtt_ms = p.take_f64("rtt");
    r.update.lost = p.take_u8("lost flag") != 0;
    if (prev_seq != 0 && r.seq != prev_seq + 1) {
      scan.truncated = true;
      scan.truncation_reason =
          "sequence break (record " + std::to_string(r.seq) + " after " +
          std::to_string(prev_seq) + ")";
      break;
    }
    prev_seq = r.seq;
    scan.records.push_back(r);
    scan.valid_bytes = c.pos();
  }
  return scan;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status JournalWriter::open(const std::string& path, std::size_t offset) {
  close();
  if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
    return io_error("cannot truncate journal", path);
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return io_error("cannot open journal", path);
  path_ = path;
  return Status::ok();
}

Status JournalWriter::append(const JournalRecord& r) {
  if (fd_ < 0) {
    return Status::error(ErrorCode::kIoError, "journal is not open");
  }
  const std::string frame = serialize_journal_record(r);
  const char* data = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error("cannot append to journal", path_);
      close();
      return s;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    const Status s = io_error("cannot fsync journal", path_);
    close();
    return s;
  }
  return Status::ok();
}

ServeStateImage capture_serve_state(const core::PathTable& table,
                                    std::uint64_t seq) {
  ServeStateImage image;
  image.seq = seq;
  image.edges.reserve(table.edges().size());
  for (const core::PathEdge& e : table.edges()) {
    ServeStateImage::EdgeState s;
    s.a = e.a.value();
    s.b = e.b.value();
    s.invocations = e.invocations;
    s.rtt = e.rtt.raw();
    s.loss = e.loss.raw();
    image.edges.push_back(s);
  }
  return image;
}

Status restore_serve_state(const ServeStateImage& image,
                           core::PathTable& table) {
  if (image.edges.size() != table.edges().size()) {
    return Status::error(
        ErrorCode::kParseError,
        "state snapshot holds " + std::to_string(image.edges.size()) +
            " edges but the dataset builds " +
            std::to_string(table.edges().size()));
  }
  for (std::size_t i = 0; i < image.edges.size(); ++i) {
    const ServeStateImage::EdgeState& s = image.edges[i];
    core::PathEdge* e = table.find_mutable(topo::HostId{s.a}, topo::HostId{s.b});
    if (e == nullptr || &table.edges()[i] != e) {
      return Status::error(ErrorCode::kParseError,
                           "state snapshot edge (" + std::to_string(s.a) +
                               ", " + std::to_string(s.b) +
                               ") does not match the dataset's edge order");
    }
    e->invocations = s.invocations;
    e->rtt = stats::Summary::from_raw(s.rtt);
    e->loss = stats::Summary::from_raw(s.loss);
  }
  return Status::ok();
}

std::string serialize_serve_state(const ServeStateImage& image,
                                  std::uint64_t fingerprint) {
  codec::Writer w{32 + image.edges.size() * kEdgeStateBytes +
                  codec::kSealBytes};
  w.put_u32(kServeStateMagic);
  w.put_u32(kServeStateVersion);
  w.put_u64(fingerprint);
  w.put_u64(image.seq);
  w.put_u64(image.edges.size());
  for (const ServeStateImage::EdgeState& s : image.edges) {
    w.put_i32(s.a);
    w.put_i32(s.b);
    w.put_i64(s.invocations);
    put_summary_raw(w, s.rtt);
    put_summary_raw(w, s.loss);
  }
  return std::move(w).seal();
}

Result<ServeStateImage> parse_serve_state(std::string_view bytes,
                                          std::uint64_t fingerprint) {
  auto parse_error = [](const std::string& why) {
    return Status::error(ErrorCode::kParseError,
                         "serve state snapshot: " + why);
  };
  if (bytes.size() < 32 + codec::kSealBytes) {
    return parse_error("file shorter than the header");
  }
  const std::optional<std::string_view> payload = codec::unseal(bytes);
  if (!payload) return parse_error("CRC mismatch (torn or corrupted file)");
  codec::Cursor c{*payload};
  const std::uint32_t magic = c.take_u32("magic");
  const std::uint32_t version = c.take_u32("version");
  if (magic != kServeStateMagic) return parse_error("bad magic (not PSSV)");
  if (version != kServeStateVersion) {
    return parse_error("version " + std::to_string(version) +
                       " is newer than this binary's " +
                       std::to_string(kServeStateVersion));
  }
  const std::uint64_t fp = c.take_u64("fingerprint");
  if (fp != fingerprint) {
    return parse_error(
        "fingerprint mismatch (snapshot from a different dataset/options)");
  }
  ServeStateImage image;
  image.seq = c.take_u64("seq");
  const std::uint64_t count = c.take_u64("edge count");
  const std::size_t body = c.remaining();
  if (count > body / kEdgeStateBytes || count * kEdgeStateBytes != body) {
    return parse_error("edge count does not match the file size");
  }
  image.edges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ServeStateImage::EdgeState s;
    s.a = c.take_i32("edge a");
    s.b = c.take_i32("edge b");
    s.invocations = c.take_i64("edge invocations");
    s.rtt = take_summary_raw(c);
    s.loss = take_summary_raw(c);
    image.edges.push_back(s);
  }
  return image;
}

}  // namespace pathsel::serve
