#include "meas/catalog.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "meas/checkpoint.h"
#include "sim/fault.h"
#include "topo/generator.h"
#include "util/expect.h"

namespace pathsel::meas {

namespace {

topo::GeneratorConfig world95_topology(std::uint64_t seed) {
  topo::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.world = true;
  cfg.backbone_count = 4;
  cfg.regional_count = 14;
  cfg.stub_count = 55;
  cfg.international_stub_fraction = 0.35;
  // Mid-90s: public exchanges were the norm and ran extremely hot.
  cfg.hot_exchange_fraction = 0.6;
  cfg.exchange_utilization_mean = 0.80;
  cfg.transit_utilization_mean = 0.42;   // loss concentrates at the NAPs,
  cfg.access_utilization_mean = 0.40;    // not uniformly across the edge
  cfg.research_member_fraction = 0.25;  // NSFNET-successor academic nets
  cfg.rate_limited_host_fraction = 0.20;
  return cfg;
}

topo::GeneratorConfig world98_topology(std::uint64_t seed) {
  topo::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.world = false;
  cfg.backbone_count = 6;
  cfg.regional_count = 20;
  cfg.stub_count = 70;
  cfg.hot_exchange_fraction = 0.55;
  cfg.exchange_utilization_mean = 0.78;
  cfg.research_member_fraction = 0.30;  // vBNS era
  cfg.rate_limited_host_fraction = 0.10;
  return cfg;
}

}  // namespace

Catalog::Catalog(CatalogConfig config) : config_{config} {
  PATHSEL_EXPECT(config.scale > 0.0 && config.scale <= 1.0,
                 "catalog scale must be in (0, 1]");
}

Duration Catalog::scaled(Duration d) const { return d * config_.scale; }

MaterializedSpec Catalog::materialize(const DatasetSpec& spec) {
  PATHSEL_EXPECT(spec.parent.empty(),
                 "derived datasets are subsets, not campaigns");
  MaterializedSpec mat;
  mat.net = spec.uses_world95 ? &world95() : &world98();
  mat.name = spec.name;
  mat.hosts = spec.hosts;
  mat.config = spec.config;
  if (config_.fault_intensity > 0.0) {
    const sim::FaultConfig fault_cfg = sim::FaultConfig::at_intensity(
        config_.fault_intensity, config_.fault_seed ^ spec.fault_tag);
    mat.plan = std::make_unique<sim::FaultPlan>(fault_cfg, mat.net->topology(),
                                                mat.config.duration);
    mat.config.faults = mat.plan.get();
    mat.config.retry.max_retries = 2;
  }
  mat.fingerprint = checkpoint_fingerprint(mat.name, mat.config, mat.hosts);
  return mat;
}

Dataset Catalog::collect_primary(const DatasetSpec& spec) {
  const MaterializedSpec mat = materialize(spec);
  Result<Dataset> result = collect_resumable(
      *mat.net, mat.hosts, mat.config, mat.name, CollectControls{});
  PATHSEL_EXPECT(result.is_ok(), "uncontrolled collection failed");
  return std::move(result.value());
}

const sim::Network& Catalog::world95() {
  if (!world95_) {
    sim::NetworkConfig net;
    net.seed = config_.seed ^ 0x95;
    net.link.loss_at_saturation = 0.30;       // lossier era
    net.link.loss_knee_utilization = 0.42;     // tiny router buffers
    net.tcp_window_kB = 16.0;                  // 1995 TCP stacks
    world95_ = std::make_unique<sim::Network>(
        topo::generate_topology(world95_topology(config_.seed + 1995)), net);
  }
  return *world95_;
}

const sim::Network& Catalog::world98() {
  if (!world98_) {
    sim::NetworkConfig net;
    net.seed = config_.seed ^ 0x98;
    net.link.loss_at_saturation = 0.13;
    world98_ = std::make_unique<sim::Network>(
        topo::generate_topology(world98_topology(config_.seed + 1998)), net);
  }
  return *world98_;
}

std::vector<topo::HostId> Catalog::pick_hosts(const sim::Network& net,
                                              std::size_t count,
                                              std::size_t na_count,
                                              bool exclude_rate_limited,
                                              std::uint64_t stream) {
  Rng rng{splitmix64(stream) ^ config_.seed};
  std::vector<topo::HostId> na;
  std::vector<topo::HostId> intl;
  for (const auto& h : net.topology().hosts()) {
    if (exclude_rate_limited && h.icmp_rate_limited) continue;
    (h.region == topo::Region::kNorthAmerica ? na : intl).push_back(h.id);
  }
  rng.shuffle(std::span<topo::HostId>{na});
  rng.shuffle(std::span<topo::HostId>{intl});
  PATHSEL_EXPECT(na.size() >= na_count, "not enough NA hosts in world");
  PATHSEL_EXPECT(intl.size() >= count - na_count,
                 "not enough international hosts in world");
  std::vector<topo::HostId> out(na.begin(),
                                na.begin() + static_cast<std::ptrdiff_t>(na_count));
  out.insert(out.end(), intl.begin(),
             intl.begin() + static_cast<std::ptrdiff_t>(count - na_count));
  std::sort(out.begin(), out.end());
  return out;
}

Dataset Catalog::subset(const Dataset& parent, std::string name,
                        const std::vector<topo::HostId>& keep) {
  std::unordered_set<topo::HostId> keep_set{keep.begin(), keep.end()};
  Dataset out;
  out.name = std::move(name);
  out.kind = parent.kind;
  out.duration = parent.duration;
  out.hosts = keep;
  out.first_sample_loss_only = parent.first_sample_loss_only;
  out.episode_count = parent.episode_count;
  // The parent's pool is small (thousands of paths), so the subset keeps a
  // copy and its rows keep their ids.
  out.paths = parent.paths;
  auto kept = [&keep_set](const Measurement& m) {
    return keep_set.contains(m.src) && keep_set.contains(m.dst);
  };
  out.measurements.reserve(static_cast<std::size_t>(std::count_if(
      parent.measurements.begin(), parent.measurements.end(), kept)));
  std::copy_if(parent.measurements.begin(), parent.measurements.end(),
               std::back_inserter(out.measurements), kept);
  return out;
}

const std::vector<std::string>& Catalog::dataset_names() {
  static const std::vector<std::string> names{
      "D2", "D2-NA", "N2", "N2-NA", "UW1", "UW3", "UW4-A", "UW4-B"};
  return names;
}

bool Catalog::is_dataset_name(std::string_view name) {
  const auto& names = dataset_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string_view Catalog::parent_of(std::string_view name) {
  if (name == "D2-NA") return "D2";
  if (name == "N2-NA") return "N2";
  return {};
}

DatasetSpec Catalog::spec(std::string_view name) {
  DatasetSpec s;
  s.name = name;
  if (name == "D2") {
    // Table 1: 33 world hosts, 48 days, traceroute, 35109 measurements.
    s.uses_world95 = true;
    s.fault_tag = 0xd2;
    s.hosts = pick_hosts(world95(), 33, 22, false, 0xd2);
    s.config.seed = config_.seed ^ 0xd201;
    s.config.discipline = Discipline::kExponentialPair;
    s.config.kind = MeasurementKind::kTraceroute;
    s.config.duration = scaled(Duration::days(48));
    s.config.mean_interval = Duration::seconds(110.0);
    s.config.first_sample_loss_only = true;  // rate limiters unidentifiable in 1995
    s.config.availability.seed = config_.seed ^ 0xd2aa;
    s.config.availability.dead_fraction = 0.015;
    return s;
  }
  if (name == "N2") {
    // Table 1: 31 world hosts, 44 days, tcpanaly, 18274 measurements.
    s.uses_world95 = true;
    s.fault_tag = 0x4e32;
    s.hosts = pick_hosts(world95(), 31, 20, false, 0x4e32);
    s.config.seed = config_.seed ^ 0x4e01;
    s.config.discipline = Discipline::kExponentialPair;
    s.config.kind = MeasurementKind::kTcpTransfer;
    s.config.duration = scaled(Duration::days(44));
    s.config.mean_interval = Duration::seconds(200.0);
    s.config.availability.seed = config_.seed ^ 0x4eaa;
    s.config.availability.dead_fraction = 0.04;
    return s;
  }
  if (const std::string_view parent_name = parent_of(name);
      !parent_name.empty()) {
    // The paper's restriction of D2/N2 to their North American hosts.
    const DatasetSpec parent = spec(parent_name);
    s.parent = parent.name;
    s.uses_world95 = true;
    s.config = parent.config;
    for (const topo::HostId h : parent.hosts) {
      if (world95().topology().host(h).region == topo::Region::kNorthAmerica) {
        s.hosts.push_back(h);
      }
    }
    return s;
  }
  if (name == "UW1") {
    // Table 1: 36 NA hosts, 34 days, per-server uniform schedule (mean 15
    // minutes); rate-limiting hosts kept as sources but not targets.
    s.fault_tag = 0x5701;
    s.hosts = pick_hosts(world98(), 36, 36, false, 0x0101);
    s.config.seed = config_.seed ^ 0x5701;
    s.config.discipline = Discipline::kUniformPerServer;
    s.config.kind = MeasurementKind::kTraceroute;
    s.config.duration = scaled(Duration::days(34));
    s.config.mean_interval = Duration::minutes(15);
    s.config.allow_rate_limited_targets = false;
    s.config.availability.seed = config_.seed ^ 0x57aa;
    s.config.availability.flaky_fraction = 0.15;
    s.config.availability.dead_fraction = 0.03;
    return s;
  }
  if (name == "UW3") {
    // Table 1: 39 NA hosts, 7 days, exponential pair selection (mean 9 s);
    // rate-limiting hosts filtered from the pool entirely.
    s.fault_tag = 0x5703;
    s.hosts = pick_hosts(world98(), 39, 39, true, 0x0303);
    s.config.seed = config_.seed ^ 0x5703;
    s.config.discipline = Discipline::kExponentialPair;
    s.config.kind = MeasurementKind::kTraceroute;
    s.config.duration = scaled(Duration::days(7));
    s.config.mean_interval = Duration::seconds(9.0 * 7.0 / 11.0);  // ~94k attempts
    s.config.availability.seed = config_.seed ^ 0x57bb;
    s.config.availability.dead_fraction = 0.10;
    return s;
  }
  if (name == "UW4-A") {
    // 15 hosts drawn from the UW3 set, measured full-mesh in episodes
    // scheduled with an exponential mean of 1000 s over 14 days.
    s.fault_tag = 0x5704;
    s.hosts = uw4_hosts();
    s.config.seed = config_.seed ^ 0x5704;
    s.config.discipline = Discipline::kEpisodeFullMesh;
    s.config.kind = MeasurementKind::kTraceroute;
    s.config.duration = scaled(Duration::days(14));
    s.config.mean_interval = Duration::seconds(1000.0);
    s.config.episode_window = Duration::minutes(4);
    s.config.availability.flaky_fraction = 0.0;  // chosen for reliability: 100% cover
    return s;
  }
  if (name == "UW4-B") {
    s.fault_tag = 0x5705;
    s.hosts = uw4_hosts();
    s.config.seed = config_.seed ^ 0x5705;
    s.config.discipline = Discipline::kExponentialPair;
    s.config.kind = MeasurementKind::kTraceroute;
    s.config.duration = scaled(Duration::days(14));
    s.config.mean_interval = Duration::seconds(130.0);
    s.config.availability.flaky_fraction = 0.0;
    return s;
  }
  PATHSEL_EXPECT(false, "unknown dataset name");
  return s;  // unreachable
}

const std::vector<topo::HostId>& Catalog::uw4_hosts() {
  if (uw4_hosts_.empty()) {
    std::vector<topo::HostId> pool = spec("UW3").hosts;
    Rng rng{config_.seed ^ 0x0404};
    rng.shuffle(std::span<topo::HostId>{pool});
    uw4_hosts_.assign(pool.begin(), pool.begin() + 15);
    std::sort(uw4_hosts_.begin(), uw4_hosts_.end());
  }
  return uw4_hosts_;
}

const Dataset& Catalog::by_name(std::string_view name) {
  if (const auto it = datasets_.find(name); it != datasets_.end()) {
    return it->second;
  }
  const DatasetSpec s = spec(name);
  Dataset ds = s.parent.empty() ? collect_primary(s)
                                : subset(by_name(s.parent), s.name, s.hosts);
  return datasets_.emplace(s.name, std::move(ds)).first->second;
}

}  // namespace pathsel::meas
