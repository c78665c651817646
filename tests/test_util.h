// Shared test fixtures: hand-built datasets, topologies and a scenario grid.
#pragma once

#include <initializer_list>
#include <vector>

#include "core/path_table.h"
#include "meas/dataset.h"
#include "topo/topology.h"

namespace pathsel::test {

/// BuildOptions with just the sample threshold set.
inline core::BuildOptions min_samples(int n) {
  core::BuildOptions o;
  o.min_samples = n;
  return o;
}

/// Appends one completed traceroute invocation; rtts of NaN-free values, one
/// ProbeSample per value.  Values <= 0 mark lost samples.
inline void add_invocation(meas::Dataset& ds, int src, int dst,
                           std::initializer_list<double> rtts,
                           SimTime when = SimTime::start(), int episode = -1) {
  meas::Measurement m;
  m.when = when;
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.episode = episode;
  m.completed = true;
  std::size_t i = 0;
  for (const double rtt : rtts) {
    if (i >= m.samples.size()) break;
    if (rtt <= 0.0) {
      m.samples[i].lost = true;
    } else {
      m.samples[i].lost = false;
      m.samples[i].rtt_ms = rtt;
    }
    ++i;
  }
  ds.measurements.push_back(std::move(m));
}

/// Interns `ases` into `paths`: the AS path id of a hand-built measurement.
inline meas::AsPathId intern_path(meas::AsPathPool& paths,
                                  std::initializer_list<std::int32_t> ases) {
  std::vector<topo::AsId> path;
  for (const std::int32_t as : ases) path.push_back(topo::AsId{as});
  return paths.intern(path);
}

/// Appends `count` identical invocations of (rtt, rtt, rtt).
inline void add_invocations(meas::Dataset& ds, int src, int dst, double rtt,
                            int count, SimTime when = SimTime::start()) {
  for (int i = 0; i < count; ++i) add_invocation(ds, src, dst, {rtt, rtt, rtt}, when);
}

/// A traceroute dataset over host ids [0, host_count).
inline meas::Dataset make_dataset(int host_count) {
  meas::Dataset ds;
  ds.name = "synthetic";
  ds.kind = meas::MeasurementKind::kTraceroute;
  ds.duration = Duration::days(1);
  for (int i = 0; i < host_count; ++i) ds.hosts.push_back(topo::HostId{i});
  return ds;
}

/// Appends one completed TCP transfer measurement.
inline void add_transfer(meas::Dataset& ds, int src, int dst, double bw_kBps,
                         double rtt_ms, double loss) {
  meas::Measurement m;
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.completed = true;
  m.bandwidth_kBps = bw_kBps;
  m.tcp_rtt_ms = rtt_ms;
  m.tcp_loss_rate = loss;
  ds.measurements.push_back(std::move(m));
}

/// A scenario grid that sets every key and section, 256 cells.
inline constexpr char kFullGrid[] =
    "# exercise every section\n"
    "name = full\n"
    "scale = 0.25\n"
    "[datasets]\n"
    "values = UW3, D2\n"
    "[faults]\n"
    "values = 0, 0.15\n"
    "[metrics]\n"
    "values = rtt, loss\n"
    "[policies]\n"
    "values = one-hop, one-hop/dense, multi-hop, disjoint:2\n"
    "[samples]\n"
    "values = 0, 5\n"
    "[seeds]\n"
    "values = 1999, 7\n";

/// A two-AS topology: AS0 (provider, two routers in SEA/NYC) and AS1 (stub,
/// one router in CHI), with hosts on every router.
inline topo::Topology make_two_as_topology() {
  topo::Topology t;
  const auto as0 = t.add_as(topo::AsTier::kBackbone, topo::IgpPolicy::kDelay, "BB");
  const auto as1 = t.add_as(topo::AsTier::kStub, topo::IgpPolicy::kHopCount, "ST");
  const auto r_sea = t.add_router(as0, 0, "bb.sea");   // city 0 = SEA
  const auto r_nyc = t.add_router(as0, 25, "bb.nyc");  // city 25 = NYC
  const auto r_chi = t.add_router(as1, 13, "st.chi");  // city 13 = CHI
  t.add_link(r_sea, r_nyc, topo::LinkKind::kIntraAs, 155.0, 0.3);
  t.add_link(r_chi, r_sea, topo::LinkKind::kTransit, 45.0, 0.4);
  t.add_relation(as0, as1, topo::AsRelation::kProviderOf);
  t.add_host(r_sea, "h.sea", false);
  t.add_host(r_nyc, "h.nyc", false);
  t.add_host(r_chi, "h.chi", false);
  return t;
}

}  // namespace pathsel::test
