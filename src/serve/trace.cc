#include "serve/trace.h"

#include <algorithm>
#include <atomic>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/codec.h"

namespace pathsel::serve {

namespace {

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
        line += "direct=" + codec::to_text(r.direct) +
                " alternate=" + codec::to_text(r.alternate) +
                " relay=" + std::to_string(r.relay) + " significance=" +
                core::to_string(r.significance);
        break;
      case BestResponse::Kind::kNoAlternate:
        line += "no-alternate direct=" + codec::to_text(r.direct);
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
              " default=" + codec::to_text(r.result.default_value) +
              " total_weight=" + codec::to_text(r.result.total_weight) +
              " paths=";
      if (r.result.paths.empty()) {
        line += "-";
      } else {
        for (std::size_t p = 0; p < r.result.paths.size(); ++p) {
          if (p > 0) line += "|";
          line += codec::to_text(r.result.paths[p].value) + ":";
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

[[nodiscard]] bool parse_metric(std::string_view token,
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
    codec::Tokens tokens{line};
    const std::string_view op = tokens.next();

    if (op == "tick") {
      std::int64_t ms = 0;
      if (!tokens.next_int(ms) || ms < 0 || !tokens.next().empty()) {
        malformed("tick wants one non-negative millisecond count");
        continue;
      }
      drain_queries(engine, pending, options.readers, out);
      engine.advance_clock(ms);
      continue;
    }

    if (op == "flush") {
      if (!tokens.next().empty()) {
        malformed("flush takes no operands");
        continue;
      }
      drain_queries(engine, pending, options.readers, out);
      if (Status s = engine.flush(); !s.is_ok()) return s;
      continue;
    }

    if (op == "update") {
      Result<EdgeUpdate> update = parse_update(tokens.rest());
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

    if (op == "query") {
      PendingQuery q;
      const std::string_view kind = tokens.next();
      const std::string metric{tokens.next()};
      if (kind == "best") {
        const std::string a{tokens.next()};
        const std::string b{tokens.next()};
        std::int64_t a_id = 0;
        std::int64_t b_id = 0;
        if (!parse_metric(metric, q.metric) || !codec::parse_int(a, a_id) ||
            !codec::parse_int(b, b_id) || !tokens.next().empty()) {
          malformed("want 'query best rtt|loss A B'");
          continue;
        }
        q.kind = PendingQuery::Kind::kBest;
        q.a = topo::HostId{static_cast<std::int32_t>(a_id)};
        q.b = topo::HostId{static_cast<std::int32_t>(b_id)};
        q.prefix = "best " + metric + " " + a + " " + b;
      } else if (kind == "disjoint") {
        const std::string k{tokens.next()};
        const std::string a{tokens.next()};
        const std::string b{tokens.next()};
        const std::string_view budget = tokens.next();
        std::int64_t k_v = 0;
        std::int64_t a_id = 0;
        std::int64_t b_id = 0;
        if (!parse_metric(metric, q.metric) || !codec::parse_int(k, k_v) ||
            !codec::parse_int(a, a_id) || !codec::parse_int(b, b_id) ||
            !tokens.next().empty()) {
          malformed("want 'query disjoint rtt|loss K A B [BUDGET_MS]'");
          continue;
        }
        if (!budget.empty() &&
            (!codec::parse_real(budget, q.deadline_ms) ||
             q.deadline_ms < 0.0)) {
          malformed("query budget must be a non-negative millisecond value");
          continue;
        }
        q.kind = PendingQuery::Kind::kDisjoint;
        q.k = static_cast<int>(k_v);
        q.a = topo::HostId{static_cast<std::int32_t>(a_id)};
        q.b = topo::HostId{static_cast<std::int32_t>(b_id)};
        q.prefix = "disjoint " + metric + " k=" + k + " " + a + " " + b;
      } else {
        malformed("unknown query kind (want best|disjoint)");
        continue;
      }
      ++stats.queries;
      pending.push_back(std::move(q));
      continue;
    }

    malformed("unknown op '" + std::string{op} + "'");
  }

  drain_queries(engine, pending, options.readers, out);
  engine.sync_metrics();
  return stats;
}

}  // namespace pathsel::serve
