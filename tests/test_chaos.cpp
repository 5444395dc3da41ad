// Chaos & recovery subsystem tests: FaultPlan JSON round-trip and
// seeded-random determinism, injector timing against a mock surface,
// the end-to-end availability loop (BFD detect -> VIP withdraw ->
// redeploy -> cutover) with its timing bounds, false-positive handling,
// NIC/core fault plumbing, and byte-identical replay of a whole
// experiment from the same seed.
#include <gtest/gtest.h>

#include "chaos/experiment.hpp"

namespace albatross {
namespace {

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto k = static_cast<FaultKind>(i);
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(k)), k);
  }
  EXPECT_THROW((void)fault_kind_from_name("meteor_strike"),
               std::runtime_error);
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.name = "rt";
  plan.seed = 42;
  plan.events.push_back({2 * kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  plan.events.push_back(
      {5 * kSecond, FaultKind::kNicDmaError, 1, 20 * kMillisecond, 8.0});
  const std::string text = plan.to_json().dump();

  const auto parsed = json_parse(text);
  ASSERT_TRUE(parsed.has_value());
  const FaultPlan back = FaultPlan::from_json(*parsed);
  EXPECT_EQ(back.name, "rt");
  EXPECT_EQ(back.seed, 42u);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].at, 2 * kSecond);
  EXPECT_EQ(back.events[0].kind, FaultKind::kPodCrash);
  EXPECT_EQ(back.events[1].kind, FaultKind::kNicDmaError);
  EXPECT_EQ(back.events[1].gateway, 1);
  EXPECT_EQ(back.events[1].duration, 20 * kMillisecond);
  EXPECT_DOUBLE_EQ(back.events[1].magnitude, 8.0);
}

TEST(FaultPlan, FromJsonSortsByTimeAndRejectsUnknownKind) {
  const auto v = json_parse(
      R"({"events":[{"at_ms":900,"kind":"link_flap"},
                    {"at_ms":100,"kind":"bgp_reset"}]})");
  ASSERT_TRUE(v.has_value());
  const FaultPlan plan = FaultPlan::from_json(*v);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBgpReset);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkFlap);

  const auto bad =
      json_parse(R"({"events":[{"at_ms":1,"kind":"gamma_ray"}]})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_THROW(FaultPlan::from_json(*bad), std::runtime_error);
}

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const auto a = FaultPlan::random(7, 20, 4, 30 * kSecond);
  const auto b = FaultPlan::random(7, 20, 4, 30 * kSecond);
  ASSERT_EQ(a.events.size(), 20u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].gateway, b.events[i].gateway);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_DOUBLE_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  // Sorted, in-window, and a different seed gives a different script.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].at, a.events[i].at);
  }
  for (const auto& e : a.events) {
    EXPECT_GE(e.at, kSecond);
    EXPECT_LT(e.at, 30 * kSecond);
    EXPECT_LT(e.gateway, 4);
  }
  const auto c = FaultPlan::random(8, 20, 4, 30 * kSecond);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    differs |= c.events[i].at != a.events[i].at ||
               c.events[i].kind != a.events[i].kind;
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------- FaultInjector

struct MockSurface final : FaultSurface {
  std::vector<std::pair<NanoTime, FaultKind>> applied;
  std::vector<std::pair<NanoTime, FaultKind>> cleared;
  void apply(const FaultEvent& e, NanoTime now) override {
    applied.emplace_back(now, e.kind);
  }
  void clear(const FaultEvent& e, NanoTime now) override {
    cleared.emplace_back(now, e.kind);
  }
};

TEST(FaultInjector, AppliesAtEventTimeAndClearsAfterDuration) {
  EventLoop loop;
  MockSurface surface;
  FaultInjector injector(loop, surface);

  FaultPlan plan;
  plan.events.push_back({kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  plan.events.push_back(
      {2 * kSecond, FaultKind::kLinkFlap, 1, 300 * kMillisecond, 0.0});
  injector.schedule(plan);
  loop.run_until(5 * kSecond);

  ASSERT_EQ(surface.applied.size(), 2u);
  EXPECT_EQ(surface.applied[0], (std::pair{kSecond, FaultKind::kPodCrash}));
  EXPECT_EQ(surface.applied[1],
            (std::pair{2 * kSecond, FaultKind::kLinkFlap}));
  // Only the bounded fault clears, at at+duration.
  ASSERT_EQ(surface.cleared.size(), 1u);
  EXPECT_EQ(surface.cleared[0],
            (std::pair{2 * kSecond + 300 * kMillisecond,
                       FaultKind::kLinkFlap}));
  EXPECT_EQ(injector.stats().applied, 2u);
  EXPECT_EQ(injector.stats().cleared, 1u);
  EXPECT_EQ(
      injector.stats().by_kind[static_cast<std::size_t>(
          FaultKind::kPodCrash)],
      1u);
}

// ------------------------------------------------- end-to-end recovery

TEST(ChaosRecovery, PodCrashClosesTheLoopWithinBounds) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 2;
  GatewayChaosHarness harness(cfg);
  for (std::uint16_t g = 0; g < harness.gateway_count(); ++g) {
    harness.attach_background_traffic(g, 50'000.0, 100, 1 + g);
  }
  RecoveryController controller(harness);
  controller.arm();

  // Crash after initial BGP convergence so the withdraw exercises the
  // real route-removal path.
  FaultPlan plan;
  plan.events.push_back({8 * kSecond, FaultKind::kPodCrash, 0, NanoTime{0}, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  harness.platform().run_until(25 * kSecond);

  ASSERT_EQ(controller.incidents_opened(), 1u);
  ASSERT_EQ(controller.incidents_recovered(), 1u);
  const IncidentRecord& inc = controller.incidents()[0];
  EXPECT_EQ(inc.kind, FaultKind::kPodCrash);
  EXPECT_TRUE(inc.redeployed);
  EXPECT_TRUE(inc.recovered);
  // BFD: 50 ms probes x3 detect_mult => 150 ms detection.
  EXPECT_GE(inc.detect_latency(), 100 * kMillisecond);
  EXPECT_LE(inc.detect_latency(), 200 * kMillisecond);
  // Blackhole ends when the withdraw propagates (shortly after detect).
  EXPECT_GE(inc.blackhole_ns(), inc.detect_latency());
  EXPECT_LE(inc.blackhole_ns(), inc.detect_latency() + 100 * kMillisecond);
  // Loss accrues only during the blackhole: ~50 kpps x ~150 ms.
  EXPECT_GT(inc.packets_lost, 1000u);
  EXPECT_LT(inc.packets_lost, 20'000u);
  // 10 s pod elasticity dominates recovery; the paper-level bound.
  EXPECT_GE(inc.recovery_ns(), 10 * kSecond);
  EXPECT_LT(inc.recovery_ns(), 40 * kSecond);
  EXPECT_EQ(controller.redeploys(), 1u);
  EXPECT_EQ(harness.orchestrator().placements().size(), 2u);

  // Zero loss after cutover.
  const auto mark = harness.platform().telemetry(harness.pod(0)).blackholed;
  harness.platform().run_until(30 * kSecond);
  EXPECT_EQ(harness.platform().telemetry(harness.pod(0)).blackholed, mark);

  // Histograms fed for the metrics exporter.
  EXPECT_EQ(controller.detect_latency_hist().count(), 1u);
  EXPECT_EQ(controller.recovery_hist().count(), 1u);
}

TEST(ChaosRecovery, LinkFlapRecoversWithoutRedeploy) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 20'000.0, 50);
  RecoveryController controller(harness);
  controller.arm();

  FaultPlan plan;
  plan.events.push_back(
      {8 * kSecond, FaultKind::kLinkFlap, 0, 400 * kMillisecond, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);
  harness.platform().run_until(12 * kSecond);

  ASSERT_EQ(controller.incidents_recovered(), 1u);
  const IncidentRecord& inc = controller.incidents()[0];
  EXPECT_EQ(inc.kind, FaultKind::kLinkFlap);
  EXPECT_FALSE(inc.redeployed);
  EXPECT_EQ(controller.redeploys(), 0u);
  // Recovery ~= flap duration + BFD re-up + convergence, well under 2 s.
  EXPECT_GE(inc.recovery_ns(), 400 * kMillisecond);
  EXPECT_LT(inc.recovery_ns(), 2 * kSecond);
  EXPECT_GT(inc.packets_lost, 0u);
}

TEST(ChaosRecovery, BfdFalsePositiveLosesNoTraffic) {
  // BFD probes suppressed while the data plane keeps forwarding (§4.3
  // false positive): the controller must withdraw and re-announce, but
  // no packet may be counted lost.
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 20'000.0, 50);
  RecoveryController controller(harness);
  controller.arm();

  FaultPlan plan;
  plan.events.push_back(
      {8 * kSecond, FaultKind::kBfdTimeout, 0, 500 * kMillisecond, 0.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);

  const auto delivered_before_window = [&] {
    return harness.platform().telemetry(harness.pod(0)).delivered;
  };
  harness.platform().run_until(8 * kSecond);
  const auto delivered_at_fault = delivered_before_window();
  harness.platform().run_until(12 * kSecond);

  ASSERT_EQ(controller.incidents_opened(), 1u);
  ASSERT_EQ(controller.incidents_recovered(), 1u);
  EXPECT_EQ(controller.incidents()[0].kind, FaultKind::kBfdTimeout);
  EXPECT_EQ(controller.packets_lost_total(), 0u);
  EXPECT_FALSE(controller.incidents()[0].redeployed);
  // Data plane never stopped.
  EXPECT_GT(harness.platform().telemetry(harness.pod(0)).delivered,
            delivered_at_fault + 10'000u);
  EXPECT_EQ(harness.platform().telemetry(harness.pod(0)).blackholed, 0u);
}

TEST(ChaosRecovery, NicAndCoreFaultsReachTheModules) {
  ChaosHarnessConfig cfg;
  cfg.gateways = 1;
  GatewayChaosHarness harness(cfg);
  harness.attach_background_traffic(0, 100'000.0, 100);

  FaultPlan plan;
  plan.events.push_back(
      {2 * kSecond, FaultKind::kNicDmaError, 0, 50 * kMillisecond, 8.0});
  plan.events.push_back(
      {3 * kSecond, FaultKind::kCoreStall, 0, 10 * kMillisecond, 2.0});
  plan.events.push_back({4 * kSecond, FaultKind::kNicReorderStuck, 0,
                         2 * kMillisecond, 0.0});
  plan.events.push_back({5 * kSecond, FaultKind::kHitterStorm, 0,
                         20 * kMillisecond, 500'000.0});
  FaultInjector injector(harness.loop(), harness);
  injector.schedule(plan);
  harness.platform().run_until(6 * kSecond);

  EXPECT_EQ(injector.stats().applied, 4u);
  EXPECT_EQ(injector.stats().cleared, 4u);
  const PodId pod = harness.pod(0);
  EXPECT_GT(harness.platform().nic().dma_faulted_transfers(pod), 0u);
  EXPECT_EQ(harness.platform().pod(pod).core_stalls(), 2u);
  // The harness stayed up through all of it.
  EXPECT_GT(harness.platform().telemetry(pod).delivered, 100'000u);
}

// ------------------------------------------------- declarative experiments

constexpr std::string_view kReplayJson = R"({
  "chaos": {
    "gateways": 2, "servers": 2, "rate_mpps": 0.02, "flows": 64,
    "duration_ms": 20000,
    "plan": { "random": { "seed": 7, "count": 4, "horizon_ms": 14000 } }
  }
})";

TEST(ChaosExperiment, ReplayIsByteIdentical) {
  const auto a = run_chaos_experiment_from_json(kReplayJson);
  const auto b = run_chaos_experiment_from_json(kReplayJson);
  EXPECT_EQ(a.injected.applied, 4u);
  EXPECT_FALSE(a.timeline.empty());
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.blackholed_total, b.blackholed_total);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
}

TEST(ChaosExperiment, ScriptedPlanRunsAndReports) {
  const auto r = run_chaos_experiment_from_json(R"({
    "gateways": 1, "rate_mpps": 0.02, "flows": 64, "duration_ms": 22000,
    "plan": { "events": [
      { "at_ms": 6000, "kind": "pod_crash", "gateway": 0 } ] }
  })");
  EXPECT_EQ(r.gateways, 1);
  EXPECT_EQ(r.injected.applied, 1u);
  ASSERT_EQ(r.incidents.size(), 1u);
  EXPECT_TRUE(r.incidents[0].recovered);
  EXPECT_TRUE(r.incidents[0].redeployed);
  EXPECT_LT(r.incidents[0].recovery_ns(), 40 * kSecond);
  EXPECT_GT(r.delivered_total, 0u);
  EXPECT_NE(r.timeline.find("pod_crash g0"), std::string::npos);
}

TEST(ChaosExperiment, BadJsonAndBadKindThrow) {
  EXPECT_THROW(run_chaos_experiment_from_json("{nope"), std::runtime_error);
  EXPECT_THROW(run_chaos_experiment_from_json(
                   R"({"plan":{"events":[{"kind":"solar_flare"}]}})"),
               std::runtime_error);
  // Events outside a "plan" object, and a plan with neither events nor
  // random, would otherwise run a fault-free experiment.
  EXPECT_THROW(run_chaos_experiment_from_json(
                   R"({"events":[{"at_ms":1,"kind":"pod_crash"}]})"),
               std::runtime_error);
  EXPECT_THROW(run_chaos_experiment_from_json(R"({"plan":{"name":"x"}})"),
               std::runtime_error);
}

}  // namespace
}  // namespace albatross
