// End-to-end integration tests over the Platform façade: traffic source
// -> NIC ingress (GOP, PLB/RSS, DMA) -> GW pod cores -> TX DMA ->
// reorder -> wire, with telemetry and the per-flow order oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "traffic/heavy_hitter.hpp"

namespace albatross {
namespace {

std::unique_ptr<PoissonFlowSource> background(double pps,
                                              std::size_t flows = 2000,
                                              std::uint64_t seed = 1) {
  PoissonFlowConfig cfg;
  cfg.num_flows = flows;
  cfg.tenants = 50;
  cfg.rate_pps = pps;
  cfg.seed = seed;
  return std::make_unique<PoissonFlowSource>(cfg);
}

TEST(Platform, EndToEndDeliveryInOrder) {
  auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 8, LbMode::kPlb);
  s.platform->enable_order_oracle(true);
  // 8 cores x ~1.4 Mpps capacity; offer 2 Mpps (~18% load) for 50 ms.
  s.platform->attach_source(background(2e6), s.pod);
  s.platform->run_until(50 * kMillisecond);
  // Let in-flight packets drain.
  s.platform->run_until(60 * kMillisecond);

  const auto& t = s.platform->telemetry(s.pod);
  EXPECT_GT(t.offered, 90'000u);
  // No overload: everything offered must be delivered (minus in-flight
  // tail at the cut-off) and strictly in per-flow order.
  EXPECT_GT(static_cast<double>(t.delivered) /
                static_cast<double>(t.offered),
            0.999);
  EXPECT_EQ(t.flow_order_violations, 0u);
  EXPECT_EQ(t.dropped_rate_limit, 0u);
  EXPECT_EQ(t.dropped_reorder_full, 0u);
  EXPECT_EQ(t.delivered_disordered, 0u);

  // Paper headline: ~20us average gateway latency on a 2023 CPU.
  // Composition: RX NIC 3.9us + service ~0.7us + queueing + TX 4.2us.
  EXPECT_GT(t.wire_latency.mean(), 8'000.0);
  EXPECT_LT(t.wire_latency.mean(), 25'000.0);
  EXPECT_LT(t.wire_latency.quantile(0.999), 100'000u);
}

TEST(Platform, MidRunTeardownFreesInFlightPackets) {
  // Overload a 2-core pod and stop after 1 ms: pending delivery and TX
  // events still own packets when the platform is destroyed. Under
  // LeakSanitizer this run must be leak-clean.
  auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 2, LbMode::kPlb);
  s.platform->attach_source(background(4e6), s.pod);
  s.platform->run_until(kMillisecond);
  const auto& t = s.platform->telemetry(s.pod);
  EXPECT_GT(t.offered, t.delivered);
  EXPECT_GT(s.platform->loop().pending(), 0u);
  s.platform.reset();
}

TEST(Platform, RssModeAlsoDelivers) {
  auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 8, LbMode::kRss);
  s.platform->enable_order_oracle(true);
  s.platform->attach_source(background(1e6), s.pod);
  s.platform->run_until(50 * kMillisecond);
  s.platform->run_until(60 * kMillisecond);
  const auto& t = s.platform->telemetry(s.pod);
  EXPECT_GT(static_cast<double>(t.delivered) /
                static_cast<double>(t.offered),
            0.999);
  // RSS never reorders by construction.
  EXPECT_EQ(t.flow_order_violations, 0u);
  EXPECT_EQ(t.delivered_disordered, 0u);
}

TEST(Platform, HeavyHitterKillsRssButNotPlb) {
  // Mini Fig. 8: a single-flow hitter above one core's capacity.
  const double hitter_pps = 2.0e6;  // ~140% of one core (~1.4 Mpps)
  auto run = [&](LbMode mode) {
    auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 4, mode);
    HeavyHitterConfig hh;
    hh.flow = make_flow(424242, 7, 0);
    hh.profile = RateProfile{{NanoTime{0}, hitter_pps}};
    s.platform->attach_source(std::make_unique<HeavyHitterSource>(hh), s.pod);
    s.platform->run_until(100 * kMillisecond);
    s.platform->run_until(110 * kMillisecond);
    const auto& t = s.platform->telemetry(s.pod);
    return static_cast<double>(t.delivered) / static_cast<double>(t.offered);
  };
  const double rss_delivery = run(LbMode::kRss);
  const double plb_delivery = run(LbMode::kPlb);
  // RSS pins the flow to one core -> ~30% loss; PLB sprays it.
  EXPECT_LT(rss_delivery, 0.85);
  EXPECT_GT(plb_delivery, 0.995);
}

TEST(Platform, TenantRateLimiterProtectsOthers) {
  // Mini Fig. 13/14 (scaled /10): pod capacity ~5.6 Mpps on 4 cores;
  // meters at 0.8+0.2 Mpps; tenant 1 bursts to 3.4 Mpps.
  PlatformConfig pc;
  pc.tenants = 10;
  pc.routes = 1000;
  pc.nic.gop.stage1_rate_pps = 0.8e6;
  pc.nic.gop.stage2_rate_pps = 0.2e6;
  pc.nic.gop.pre_meter_rate_pps = 1.0e6;
  Platform platform(pc);
  GwPodConfig pod_cfg;
  pod_cfg.service = ServiceKind::kVpcVpc;
  pod_cfg.data_cores = 4;
  const PodId pod = platform.create_pod(pod_cfg);

  std::vector<TenantSpec> tenants;
  for (Vni v = 1; v <= 4; ++v) {
    TenantSpec spec;
    spec.vni = v;
    const double base = static_cast<double>(5 - v) * 0.1e6;  // .4/.3/.2/.1
    spec.profile = RateProfile{{NanoTime{0}, base}};
    if (v == 1) spec.profile.add_step(20 * kMillisecond, 3.4e6);
    tenants.push_back(spec);
  }
  platform.attach_source(
      std::make_unique<TenantTrafficSource>(std::move(tenants), NanoTime{}), pod);
  platform.run_until(120 * kMillisecond);

  // Tenant 1 must be squeezed to ~stage1+stage2 = 1 Mpps equivalent.
  const auto& t1 = platform.tenant(1);
  EXPECT_GT(t1.dropped_rate_limit, 0u);
  const double t1_rate =
      static_cast<double>(t1.delivered) / 0.12 / 1e6;  // Mpps over 120ms
  EXPECT_LT(t1_rate, 1.3);
  // Innocent tenants sail through untouched.
  for (Vni v = 2; v <= 4; ++v) {
    const auto& tv = platform.tenant(v);
    EXPECT_EQ(tv.dropped_rate_limit, 0u);
    EXPECT_GT(static_cast<double>(tv.delivered) /
                  static_cast<double>(tv.offered),
              0.99);
  }
}

TEST(Platform, DropFlagPreventsHolTimeouts) {
  // Traffic aimed at the ACL deny rule (9.9.9.0/24) mixed with good
  // traffic. With the drop flag, reorder resources release instantly;
  // without it, every CPU drop costs a 100us HOL stall.
  auto run = [&](bool drop_flag) {
    auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 4, LbMode::kPlb,
                                     200, 20'000, drop_flag);
    PoissonFlowConfig bad;
    bad.num_flows = 50;
    bad.rate_pps = 50'000;
    bad.seed = 3;
    auto bad_src = std::make_unique<PoissonFlowSource>(bad);
    // Redirect all bad flows to the denied prefix.
    // (make_flow dst is 8.x; we rewrite tuples via a custom source.)
    s.platform->attach_source(background(400'000, 500, 5), s.pod);

    // Inject denied packets directly through the platform by attaching
    // a hitter whose flow targets the deny rule.
    HeavyHitterConfig hh;
    hh.flow = make_flow(777, 3, 0);
    hh.flow.tuple.dst_ip = Ipv4Address::from_octets(9, 9, 9, 7);
    hh.profile = RateProfile{{NanoTime{0}, 50'000.0}};
    s.platform->attach_source(std::make_unique<HeavyHitterSource>(hh), s.pod);

    s.platform->run_until(100 * kMillisecond);
    const auto stats = s.platform->nic().engine(s.pod).total_stats();
    return stats;
  };
  const auto with_flag = run(true);
  const auto without_flag = run(false);
  EXPECT_GT(with_flag.drop_releases, 1000u);
  EXPECT_EQ(with_flag.timeout_releases, 0u);
  EXPECT_EQ(without_flag.drop_releases, 0u);
  EXPECT_GT(without_flag.timeout_releases, 1000u);
}

TEST(Platform, ScenarioSummaryMath) {
  PodTelemetry t;
  t.offered = 1000;
  t.delivered = 900;
  t.delivered_disordered = 9;
  t.wire_latency.record_n(20'000, 900);
  const auto r = summarize(t, kSecond);
  EXPECT_NEAR(r.offered_mpps, 0.001, 1e-9);
  EXPECT_NEAR(r.loss_rate, 0.1, 1e-9);
  EXPECT_NEAR(r.mean_latency_us, 20.0, 0.5);
  EXPECT_NEAR(r.disorder_rate, 0.01, 1e-9);
  EXPECT_EQ(format_mpps(81.64), "81.6Mpps");
}

TEST(Platform, CoreCapacityClosedForm) {
  CacheModel cache;
  cache.set_working_set_bytes(4ull << 30);
  // ~1 Mpps per core class across services (§2.1).
  for (const auto k : {ServiceKind::kVpcVpc, ServiceKind::kVpcInternet,
                       ServiceKind::kVpcIdc, ServiceKind::kVpcCloudService}) {
    const double mpps = core_capacity_mpps(k, cache, false);
    EXPECT_GT(mpps, 0.8) << service_name(k);
    EXPECT_LT(mpps, 1.7) << service_name(k);
  }
  // Tab. 3 ratio: Internet ~0.63x of VPC-VPC.
  const double ratio =
      core_capacity_mpps(ServiceKind::kVpcInternet, cache, false) /
      core_capacity_mpps(ServiceKind::kVpcVpc, cache, false);
  EXPECT_NEAR(ratio, 0.634, 0.08);
}

TEST(Platform, OfflinePodCountsAtAnyIngressBatch) {
  // A pod taken offline mid-run blackholes its arrivals; the pump counts
  // a whole batch at once. What is offered must not depend on how many
  // arrivals one activation draws, and the per-tenant drops must add up
  // to the pod's blackhole count. Which arrivals a switch catches can
  // differ: a batch drawn just before a switch runs up to
  // kMaxIngressBurst - 1 later arrivals with the pod's state at the
  // batch head.
  struct Counts {
    PodTelemetry pod;
    std::vector<TenantCounters> tenants;
  };
  const auto run = [](std::size_t ingress_batch) {
    PlatformConfig pc;
    pc.tenants = 200;
    pc.routes = 20'000;
    pc.tables_data_cores = 4;
    pc.ingress_batch = ingress_batch;
    Platform platform(pc);
    GwPodConfig gp;
    gp.data_cores = 4;
    const PodId pod = platform.create_pod(gp);
    platform.attach_source(background(2e6), pod);  // tenants 1..50
    platform.run_until(5 * kMillisecond);
    platform.set_pod_offline(pod, true);
    platform.run_until(10 * kMillisecond);
    platform.set_pod_offline(pod, false);
    platform.run_until(15 * kMillisecond);
    Counts c{platform.telemetry(pod), {}};
    for (Vni vni = 1; vni <= 50; ++vni) {
      c.tenants.push_back(platform.tenant(vni));
    }
    return c;
  };
  const Counts scalar = run(1);
  const Counts batched = run(32);
  for (const Counts* c : {&scalar, &batched}) {
    EXPECT_GT(c->pod.blackholed, 5'000u);
    EXPECT_EQ(c->pod.dropped_reorder_full, 0u);
    std::uint64_t offered = 0;
    std::uint64_t dropped_other = 0;
    for (const TenantCounters& t : c->tenants) {
      offered += t.offered;
      dropped_other += t.dropped_other;
    }
    EXPECT_EQ(offered, c->pod.offered);
    EXPECT_EQ(dropped_other, c->pod.blackholed);
  }
  EXPECT_EQ(scalar.pod.offered, batched.pod.offered);
  for (std::size_t i = 0; i < scalar.tenants.size(); ++i) {
    EXPECT_EQ(scalar.tenants[i].offered, batched.tenants[i].offered) << i;
  }
  const std::uint64_t reach = 2 * (NicPipeline::kMaxIngressBurst - 1);
  const auto [lo, hi] =
      std::minmax(scalar.pod.blackholed, batched.pod.blackholed);
  EXPECT_LE(hi - lo, reach);
}

TEST(Platform, ResetTelemetryClearsCounters) {
  auto s = SinglePodScenario::make(ServiceKind::kVpcVpc, 2, LbMode::kPlb);
  s.platform->attach_source(background(100'000), s.pod);
  s.platform->run_until(10 * kMillisecond);
  EXPECT_GT(s.platform->telemetry(s.pod).offered, 0u);
  s.platform->reset_telemetry();
  EXPECT_EQ(s.platform->telemetry(s.pod).offered, 0u);
  EXPECT_EQ(s.platform->telemetry(s.pod).wire_latency.count(), 0u);
}

}  // namespace
}  // namespace albatross
