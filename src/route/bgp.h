// BGP-style inter-domain route computation.
//
// Implements the policy structure described in §3 of the paper: each AS
// prefers routes learned from customers over routes learned from peers over
// routes learned from providers (the economic Gao-Rexford preferences),
// breaks ties by shortest AS path and then lowest next-hop AS id, and honors
// an optional cost-driven strict provider preference.  Export follows the
// valley-free rule: customer routes are advertised to everyone; peer and
// provider routes only to customers.  The customer/provider digraph produced
// by the generator is acyclic (strict tiers), so a Bellman-Ford sweep to a
// fixed point computes the unique stable routing.
//
// Columns on demand.  Each destination's routes are an independent fixed
// point, so the tables compute destination d's column (every AS's route
// toward d) the first time route() or as_path() asks for d, and never
// again.  The column's contents do not depend on which destinations were
// asked for before it, so the routes are the same whatever the query order.
// A fault epoch that probes a few destinations pays for those few.  The
// live-session set is captured at construction: links failed or repaired
// afterwards do not change the tables, but the topology's AS relations must
// stay as they were, and the topology must outlive the tables.
//
// Concurrency.  The const queries may be called from several threads at
// once; a per-destination std::call_once makes the first-use fill race-free.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "topo/topology.h"

namespace pathsel::route {

enum class RouteClass : std::uint8_t {
  kCustomer = 0,  // learned from a customer (most preferred)
  kPeer = 1,
  kProvider = 2,
  kNone = 3,  // destination unreachable under policy
};

struct RouteEntry {
  RouteClass cls = RouteClass::kNone;
  int path_length = 0;      // number of AS hops to the destination
  topo::AsId next_hop{};    // neighbor AS the route was learned from
};

class BgpTables {
 public:
  explicit BgpTables(const topo::Topology& topology);

  /// The route selected at `at` toward destination AS `dest`.
  [[nodiscard]] const RouteEntry& route(topo::AsId at, topo::AsId dest) const;

  /// AS-level path from `from` to `dest` (inclusive of both endpoints),
  /// reconstructed by following selected next hops.  Empty if unreachable.
  [[nodiscard]] std::vector<topo::AsId> as_path(topo::AsId from,
                                                topo::AsId dest) const;

  /// True if every stub AS can reach every other stub AS.
  [[nodiscard]] bool stubs_fully_connected() const;

 private:
  /// Destination `dest`'s column, indexed by AS; computed on first use.
  [[nodiscard]] const RouteEntry* column(topo::AsId dest) const;
  /// Fills column `dest`, reading and writing no other column.
  void compute_for_destination(topo::AsId dest) const;

  [[nodiscard]] bool session_up(topo::AsId a, topo::AsId b) const {
    return live_sessions_[a.index() * as_count_ + b.index()] != 0;
  }

  const topo::Topology* topo_;
  std::size_t as_count_;
  // as_count x as_count, symmetric: 1 where a live link joins the two ASes.
  std::vector<std::uint8_t> live_sessions_;
  // as_count x as_count, one column per destination: [dest * n + at].
  // Written only inside the column's call_once.
  mutable std::vector<RouteEntry> table_;
  std::unique_ptr<std::once_flag[]> computed_;  // one flag per destination
};

}  // namespace pathsel::route
