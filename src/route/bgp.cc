#include "route/bgp.h"

#include "util/expect.h"
#include "util/metrics.h"

namespace pathsel::route {

namespace {

// True if `candidate` should replace `current` at an AS whose preferred
// provider is `preferred` (may be invalid).  Both candidates already respect
// export rules; this is pure route *selection*.
bool better(const RouteEntry& candidate, const RouteEntry& current,
            topo::AsId preferred) {
  if (current.cls == RouteClass::kNone) return candidate.cls != RouteClass::kNone;
  if (candidate.cls != current.cls) return candidate.cls < current.cls;
  // Strict cost preference applies only among provider-learned routes.
  if (candidate.cls == RouteClass::kProvider && preferred.valid()) {
    const bool cand_pref = candidate.next_hop == preferred;
    const bool cur_pref = current.next_hop == preferred;
    if (cand_pref != cur_pref) return cand_pref;
  }
  if (candidate.path_length != current.path_length) {
    return candidate.path_length < current.path_length;
  }
  return candidate.next_hop < current.next_hop;
}

}  // namespace

BgpTables::BgpTables(const topo::Topology& topology)
    : topo_{&topology},
      as_count_{topology.as_count()},
      live_sessions_(as_count_ * as_count_, 0),
      table_(as_count_ * as_count_),
      computed_{std::make_unique<std::once_flag[]>(as_count_)} {
  // A BGP session is live only while at least one physical link between the
  // two ASes is up.
  for (const auto& l : topology.links()) {
    if (l.kind == topo::LinkKind::kIntraAs || l.down) continue;
    const std::size_t a = topology.router(l.a).as.index();
    const std::size_t b = topology.router(l.b).as.index();
    live_sessions_[a * as_count_ + b] = 1;
    live_sessions_[b * as_count_ + a] = 1;
  }
  MetricsRegistry::global().count("route.bgp.table_builds");
}

const RouteEntry* BgpTables::column(topo::AsId dest) const {
  PATHSEL_EXPECT(dest.index() < as_count_, "BGP route: unknown AS");
  std::call_once(computed_[dest.index()],
                 [this, dest] { compute_for_destination(dest); });
  return table_.data() + dest.index() * as_count_;
}

const RouteEntry& BgpTables::route(topo::AsId at, topo::AsId dest) const {
  PATHSEL_EXPECT(at.index() < as_count_, "BGP route: unknown AS");
  return column(dest)[at.index()];
}

void BgpTables::compute_for_destination(topo::AsId dest) const {
  const ScopedTimer timer{"route.bgp.table_build"};
  MetricsRegistry::global().count("route.bgp.destinations_computed");
  const auto& ases = topo_->ases();
  RouteEntry* col = table_.data() + dest.index() * as_count_;
  const auto entry = [col](topo::AsId at) -> RouteEntry& {
    return col[at.index()];
  };

  // Phase 1: customer routes.  An AS has a customer route iff it can reach
  // the destination by a chain of provider->customer edges (every hop
  // descends).  The customer/provider digraph is acyclic, so iterating to a
  // fixed point terminates; sweeps are bounded by the longest descending
  // chain.
  entry(dest) = RouteEntry{RouteClass::kCustomer, 0, dest};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& as : ases) {
      if (as.id == dest) continue;
      for (const topo::AsId customer : as.customers) {
        if (!session_up(as.id, customer)) continue;
        const RouteEntry& via = entry(customer);
        if (via.cls != RouteClass::kCustomer && customer != dest) continue;
        if (via.cls == RouteClass::kNone) continue;
        const RouteEntry candidate{RouteClass::kCustomer, via.path_length + 1,
                                   customer};
        RouteEntry& mine = entry(as.id);
        // Within phase 1 everything is customer-class; preference reduces to
        // length then id.
        if (better(candidate, mine, topo::AsId{})) {
          mine = candidate;
          changed = true;
        }
      }
    }
  }

  // Phase 2: peer routes.  A peer advertises only customer routes (and
  // itself), and a peer-learned route is never re-advertised to peers, so a
  // single pass suffices.
  for (const auto& as : ases) {
    if (as.id == dest) continue;
    RouteEntry& mine = entry(as.id);
    for (const topo::AsId peer : as.peers) {
      if (!session_up(as.id, peer)) continue;
      const RouteEntry& via = entry(peer);
      const bool exportable =
          peer == dest || via.cls == RouteClass::kCustomer;
      if (!exportable || via.cls == RouteClass::kNone) continue;
      const RouteEntry candidate{RouteClass::kPeer, via.path_length + 1, peer};
      if (better(candidate, mine, topo::AsId{})) mine = candidate;
    }
  }

  // Phase 3: provider routes.  A provider advertises its selected route
  // (whatever its class) to customers.  Fixed-point sweep; terminates
  // because provider edges are acyclic and lengths only shrink.
  changed = true;
  while (changed) {
    changed = false;
    for (const auto& as : ases) {
      if (as.id == dest) continue;
      RouteEntry& mine = entry(as.id);
      for (const topo::AsId provider : as.providers) {
        if (!session_up(as.id, provider)) continue;
        const RouteEntry& via = entry(provider);
        if (via.cls == RouteClass::kNone && provider != dest) continue;
        const int via_len = provider == dest ? 0 : via.path_length;
        const RouteEntry candidate{RouteClass::kProvider, via_len + 1, provider};
        if (better(candidate, mine, as.preferred_provider)) {
          mine = candidate;
          changed = true;
        }
      }
    }
  }
}

std::vector<topo::AsId> BgpTables::as_path(topo::AsId from,
                                           topo::AsId dest) const {
  PATHSEL_EXPECT(from.index() < as_count_, "BGP route: unknown AS");
  const RouteEntry* col = column(dest);
  std::vector<topo::AsId> path;
  topo::AsId cursor = from;
  path.push_back(cursor);
  while (cursor != dest) {
    const RouteEntry& r = col[cursor.index()];
    if (r.cls == RouteClass::kNone) return {};
    cursor = r.next_hop;
    PATHSEL_EXPECT(path.size() <= as_count_, "BGP path reconstruction loop");
    path.push_back(cursor);
  }
  return path;
}

bool BgpTables::stubs_fully_connected() const {
  for (const auto& a : topo_->ases()) {
    if (a.tier != topo::AsTier::kStub) continue;
    for (const auto& b : topo_->ases()) {
      if (b.tier != topo::AsTier::kStub || a.id == b.id) continue;
      if (route(a.id, b.id).cls == RouteClass::kNone) return false;
    }
  }
  return true;
}

}  // namespace pathsel::route
