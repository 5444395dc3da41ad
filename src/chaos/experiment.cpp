#include "chaos/experiment.hpp"

#include <stdexcept>

#include "core/config.hpp"

namespace albatross {

FaultPlan chaos_plan_from_json(const JsonValue& cfg, std::uint16_t gateways,
                               NanoTime horizon) {
  const JsonValue& plan_json = cfg["plan"];
  if (!plan_json.is_object() ||
      !(plan_json["events"].is_array() || plan_json["random"].is_object())) {
    // A misplaced plan would otherwise run a fault-free experiment and
    // report "0 faults injected" as if that had been asked for.
    throw std::runtime_error(
        "chaos config: \"plan\" must be an object with an \"events\" "
        "array or a \"random\" object");
  }
  if (plan_json["random"].is_object()) {
    const JsonValue& r = plan_json["random"];
    return FaultPlan::random(
        static_cast<std::uint64_t>(r.get_int("seed", 1)),
        static_cast<std::size_t>(r.get_int("count", 5)), gateways,
        millis_to_nanos(r.get_number("horizon_ms",
                                     nanos_to_millis(horizon))));
  }
  return FaultPlan::from_json(plan_json);
}

ChaosExperimentResult run_chaos_experiment_from_json(
    std::string_view json_text) {
  JsonParseError err;
  const auto parsed = json_parse(json_text, &err);
  if (!parsed) {
    throw std::runtime_error("chaos config parse error at offset " +
                             std::to_string(err.offset) + ": " +
                             err.message);
  }
  const JsonValue& root = *parsed;
  const JsonValue& cfg = root["chaos"].is_object() ? root["chaos"] : root;

  ChaosHarnessConfig hc;
  hc.gateways = static_cast<std::uint16_t>(cfg.get_int("gateways", 2));
  hc.data_cores = static_cast<std::uint16_t>(cfg.get_int("data_cores", 4));
  hc.servers = static_cast<std::uint16_t>(cfg.get_int("servers", 2));
  hc.dual_proxy = cfg.get_bool("dual_proxy", true);
  hc.service = service_from_name(cfg.get_string("service", "vpc"));
  hc.orch.handover_validation =
      millis_to_nanos(cfg.get_number("validation_ms", 5000.0));

  const auto duration =
      millis_to_nanos(cfg.get_number("duration_ms", 30'000.0));
  const double rate_pps = cfg.get_number("rate_mpps", 0.05) * 1e6;
  const auto flows = static_cast<std::size_t>(cfg.get_int("flows", 200));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  GatewayChaosHarness harness(hc);
  for (std::uint16_t g = 0; g < harness.gateway_count(); ++g) {
    harness.attach_background_traffic(g, rate_pps, flows, seed + g);
  }

  RecoveryController controller(harness);
  controller.arm();

  FaultInjector injector(harness.loop(), harness);
  injector.schedule(chaos_plan_from_json(cfg, harness.gateway_count(),
                                         duration));

  harness.platform().run_until(duration);

  ChaosExperimentResult result;
  result.gateways = harness.gateway_count();
  result.duration = duration;
  result.injected = injector.stats();
  result.harness = harness.counters();
  result.incidents = controller.incidents();
  result.timeline = controller.timeline();
  result.packets_lost = controller.packets_lost_total();
  for (std::uint16_t g = 0; g < harness.gateway_count(); ++g) {
    const PodTelemetry& t = harness.platform().telemetry(harness.pod(g));
    result.blackholed_total += t.blackholed;
    result.delivered_total += t.delivered;
  }
  result.detect_summary = controller.detect_latency_hist().summary_us();
  result.recovery_summary = controller.recovery_hist().summary_us();
  return result;
}

}  // namespace albatross
