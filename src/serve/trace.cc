#include "serve/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/codec.h"

namespace pathsel::serve {

namespace {

// Shortest-exact double rendering (%.17g round-trips every IEEE double), the
// same convention the bench JSON writers use for byte-stable output.
std::string render_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

struct PendingQuery {
  enum class Kind { kBest, kDisjoint };
  Kind kind = Kind::kBest;
  core::Metric metric = core::Metric::kRtt;
  int k = 0;
  topo::HostId a;
  topo::HostId b;
  double deadline_ms = -1.0;  // <0: no budget
  std::string prefix;         // echoed before the response fields
};

std::string meta_fields(const QueryMeta& meta) {
  return "seq=" + std::to_string(meta.seq) +
         " age_ms=" + std::to_string(meta.age_ms) +
         " stale=" + (meta.stale ? std::string{"1"} : std::string{"0"});
}

std::string run_query(ServeEngine& engine, const PendingQuery& q,
                      std::size_t slot) {
  if (q.kind == PendingQuery::Kind::kBest) {
    const BestResponse r = engine.query_best(q.metric, q.a, q.b, slot);
    std::string line = q.prefix + ": " + meta_fields(r.meta) + " ";
    switch (r.kind) {
      case BestResponse::Kind::kOk:
        line += "direct=" + render_double(r.direct) +
                " alternate=" + render_double(r.alternate) +
                " relay=" + std::to_string(r.relay) + " significance=" +
                core::to_string(r.significance);
        break;
      case BestResponse::Kind::kNoAlternate:
        line += "no-alternate direct=" + render_double(r.direct);
        break;
      case BestResponse::Kind::kNoPair:
        line += "no-pair";
        break;
      case BestResponse::Kind::kUnknownHost:
        line += "unknown-host";
        break;
    }
    return line;
  }

  const DisjointResponse r =
      engine.query_disjoint(q.metric, q.k, q.a, q.b, slot, q.deadline_ms);
  std::string line = q.prefix + ": " + meta_fields(r.meta) + " ";
  switch (r.kind) {
    case DisjointResponse::Kind::kOk: {
      line += "found=" + std::to_string(r.result.found_k()) +
              " default=" + render_double(r.result.default_value) +
              " total_weight=" + render_double(r.result.total_weight) +
              " paths=";
      if (r.result.paths.empty()) {
        line += "-";
      } else {
        for (std::size_t p = 0; p < r.result.paths.size(); ++p) {
          if (p > 0) line += "|";
          line += render_double(r.result.paths[p].value) + ":";
          const auto& via = r.result.paths[p].via;
          for (std::size_t h = 0; h < via.size(); ++h) {
            if (h > 0) line += ",";
            line += std::to_string(via[h].value());
          }
        }
      }
      break;
    }
    case DisjointResponse::Kind::kNoPair:
      line += "no-pair";
      break;
    case DisjointResponse::Kind::kUnknownHost:
      line += "unknown-host";
      break;
    case DisjointResponse::Kind::kInvalidK:
      line += "invalid-k";
      break;
    case DisjointResponse::Kind::kDeadline:
      line += "deadline-exceeded";
      break;
  }
  return line;
}

/// Runs the batch on `readers` threads (slot = thread index) and prints the
/// responses in trace order.  Every query in the batch observes the same
/// published snapshot — no flush can interleave — so the output bytes are
/// identical for every reader count.
void drain_queries(ServeEngine& engine, std::vector<PendingQuery>& batch,
                   int readers, std::ostream& out) {
  if (batch.empty()) return;
  std::vector<std::string> responses(batch.size());
  const int threads =
      std::clamp(readers, 1,
                 static_cast<int>(std::min<std::size_t>(
                     engine.reader_slots(), batch.size())));
  if (threads == 1) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      responses[i] = run_query(engine, batch[i], 0);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= batch.size()) break;
          responses[i] =
              run_query(engine, batch[i], static_cast<std::size_t>(t));
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (const std::string& r : responses) out << r << "\n";
  batch.clear();
}

[[nodiscard]] bool parse_metric(const std::string& token,
                                core::Metric& metric) {
  if (token == "rtt") {
    metric = core::Metric::kRtt;
    return true;
  }
  if (token == "loss") {
    metric = core::Metric::kLoss;
    return true;
  }
  return false;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is{line};
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

Result<TraceStats> run_trace(ServeEngine& engine, std::istream& in,
                             std::ostream& out, std::ostream& err,
                             const TraceOptions& options) {
  TraceStats stats;
  std::vector<PendingQuery> pending;
  std::string line;
  std::size_t line_no = 0;

  auto malformed = [&](const std::string& why) {
    ++stats.rejected;
    err << "trace line " << line_no << ": " << why << "\n";
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    ++stats.lines;
    const std::vector<std::string> tokens = tokenize(line);

    if (tokens[0] == "tick") {
      std::int64_t ms = 0;
      if (tokens.size() != 2 || !codec::parse_i64(tokens[1], ms) || ms < 0) {
        malformed("tick wants one non-negative millisecond count");
        continue;
      }
      drain_queries(engine, pending, options.readers, out);
      engine.advance_clock(ms);
      continue;
    }

    if (tokens[0] == "flush") {
      if (tokens.size() != 1) {
        malformed("flush takes no operands");
        continue;
      }
      drain_queries(engine, pending, options.readers, out);
      if (Status s = engine.flush(); !s.is_ok()) return s;
      continue;
    }

    if (tokens[0] == "update") {
      const std::size_t at = line.find("update");
      Result<EdgeUpdate> update = parse_update(
          std::string_view{line}.substr(at + std::string{"update"}.size()));
      if (!update.is_ok()) {
        malformed(update.status().message());
        continue;
      }
      if (Status s = engine.submit(update.value()); !s.is_ok()) {
        malformed(s.message());
        continue;
      }
      ++stats.updates;
      continue;
    }

    if (tokens[0] == "query") {
      PendingQuery q;
      if (tokens.size() >= 2 && tokens[1] == "best") {
        std::int64_t a = 0;
        std::int64_t b = 0;
        if (tokens.size() != 5 || !parse_metric(tokens[2], q.metric) ||
            !codec::parse_i64(tokens[3], a) ||
            !codec::parse_i64(tokens[4], b)) {
          malformed("want 'query best rtt|loss A B'");
          continue;
        }
        q.kind = PendingQuery::Kind::kBest;
        q.a = topo::HostId{static_cast<std::int32_t>(a)};
        q.b = topo::HostId{static_cast<std::int32_t>(b)};
        q.prefix = "best " + tokens[2] + " " + tokens[3] + " " + tokens[4];
      } else if (tokens.size() >= 2 && tokens[1] == "disjoint") {
        std::int64_t k = 0;
        std::int64_t a = 0;
        std::int64_t b = 0;
        if ((tokens.size() != 6 && tokens.size() != 7) ||
            !parse_metric(tokens[2], q.metric) ||
            !codec::parse_i64(tokens[3], k) ||
            !codec::parse_i64(tokens[4], a) ||
            !codec::parse_i64(tokens[5], b)) {
          malformed("want 'query disjoint rtt|loss K A B [BUDGET_MS]'");
          continue;
        }
        if (tokens.size() == 7 &&
            (!codec::parse_double(tokens[6], q.deadline_ms) ||
             q.deadline_ms < 0.0)) {
          malformed("query budget must be a non-negative millisecond value");
          continue;
        }
        q.kind = PendingQuery::Kind::kDisjoint;
        q.k = static_cast<int>(k);
        q.a = topo::HostId{static_cast<std::int32_t>(a)};
        q.b = topo::HostId{static_cast<std::int32_t>(b)};
        q.prefix = "disjoint " + tokens[2] + " k=" + tokens[3] + " " +
                   tokens[4] + " " + tokens[5];
      } else {
        malformed("unknown query kind (want best|disjoint)");
        continue;
      }
      ++stats.queries;
      pending.push_back(std::move(q));
      continue;
    }

    malformed("unknown op '" + tokens[0] + "'");
  }

  drain_queries(engine, pending, options.readers, out);
  engine.sync_metrics();
  return stats;
}

}  // namespace pathsel::serve
