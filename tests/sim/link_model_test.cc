#include "sim/link_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::sim {
namespace {

topo::Link make_link(double capacity, topo::LinkKind kind) {
  topo::Link l;
  l.id = topo::LinkId{0};
  l.capacity_mbps = capacity;
  l.kind = kind;
  l.prop_delay_ms = 10.0;
  return l;
}

TEST(LinkModel, ServiceTimeFromCapacity) {
  const LinkModel m{LinkModelConfig{}};
  // 12000 bits at 1.5 Mbps = 8 ms; at 45 Mbps ~ 0.267 ms.
  EXPECT_NEAR(m.service_time_ms(make_link(1.5, topo::LinkKind::kTransit)), 8.0,
              1e-9);
  EXPECT_NEAR(m.service_time_ms(make_link(45.0, topo::LinkKind::kTransit)),
              0.2667, 1e-3);
}

TEST(LinkModel, QueueingDelayMonotoneInUtilization) {
  const LinkModel m{LinkModelConfig{}};
  const auto l = make_link(45.0, topo::LinkKind::kTransit);
  double prev = -1.0;
  for (double u = 0.1; u <= 0.9; u += 0.1) {
    const double q = m.mean_queueing_delay_ms(l, u);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(LinkModel, QueueingDelayZeroAtZeroUtilization) {
  const LinkModel m{LinkModelConfig{}};
  EXPECT_DOUBLE_EQ(
      m.mean_queueing_delay_ms(make_link(45.0, topo::LinkKind::kTransit), 0.0),
      0.0);
}

TEST(LinkModel, ExchangeFabricsQueueWorse) {
  const LinkModel m{LinkModelConfig{}};
  const auto transit = make_link(45.0, topo::LinkKind::kTransit);
  const auto exchange = make_link(45.0, topo::LinkKind::kPublicExchange);
  EXPECT_GT(m.mean_queueing_delay_ms(exchange, 0.8),
            m.mean_queueing_delay_ms(transit, 0.8));
}

TEST(LinkModel, UtilizationClampPreventsInfiniteQueue) {
  const LinkModel m{LinkModelConfig{}};
  const auto l = make_link(45.0, topo::LinkKind::kTransit);
  EXPECT_TRUE(std::isfinite(m.mean_queueing_delay_ms(l, 1.0)));
}

TEST(LinkModel, LossNegligibleBelowKnee) {
  const LinkModel m{LinkModelConfig{}};
  const auto l = make_link(45.0, topo::LinkKind::kTransit);
  EXPECT_NEAR(m.loss_probability(l, 0.3), m.config().base_loss, 1e-9);
}

TEST(LinkModel, LossRisesSteeplyAboveKnee) {
  const LinkModel m{LinkModelConfig{}};
  const auto l = make_link(45.0, topo::LinkKind::kTransit);
  const double at_knee = m.loss_probability(l, m.config().loss_knee_utilization);
  const double at_90 = m.loss_probability(l, 0.9);
  const double at_98 = m.loss_probability(l, 0.98);
  EXPECT_LT(at_knee, at_90);
  EXPECT_LT(at_90, at_98);
  EXPECT_GT(at_98, 0.02);
}

TEST(LinkModel, ExchangeLosesMoreWhenSaturated) {
  const LinkModel m{LinkModelConfig{}};
  EXPECT_GT(m.loss_probability(make_link(45.0, topo::LinkKind::kPublicExchange),
                               0.95),
            m.loss_probability(make_link(45.0, topo::LinkKind::kTransit),
                               0.95));
}

TEST(LinkModel, LossCappedAtHalf) {
  LinkModelConfig cfg;
  cfg.loss_at_saturation = 10.0;  // absurd on purpose
  const LinkModel m{cfg};
  EXPECT_LE(m.loss_probability(make_link(45.0, topo::LinkKind::kPublicExchange),
                               1.0),
            0.5);
}

}  // namespace
}  // namespace pathsel::sim
