// Declarative chaos experiments: JSON in, incident timeline out — the
// chaos counterpart of core/config's run_experiment_from_json, and what
// `albatross_sim chaos --plan file.json` executes.
//
// Schema (everything optional; the "chaos" wrapper may be omitted):
// {
//   "chaos": {
//     "gateways": 2, "data_cores": 4, "servers": 2,
//     "dual_proxy": true, "service": "vpc|internet|idc|cloud",
//     "validation_ms": 5000,          // replacement validation window
//     "rate_mpps": 0.05, "flows": 200, "seed": 1,   // background load
//     "duration_ms": 30000,
//     "plan": {                        // scripted ...
//       "events": [ { "at_ms": 1000, "kind": "pod_crash", "gateway": 0,
//                     "duration_ms": 0, "magnitude": 0 } ]
//     }
//     // ... or seeded-random:
//     // "plan": { "random": { "seed": 7, "count": 5,
//     //                       "horizon_ms": 20000 } }
//   }
// }
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "chaos/recovery.hpp"

namespace albatross {

struct ChaosExperimentResult {
  std::uint16_t gateways = 0;
  NanoTime duration = NanoTime{0};
  FaultInjectorStats injected;
  ChaosHarnessCounters harness;
  std::vector<IncidentRecord> incidents;
  std::string timeline;             ///< RecoveryController::timeline()
  std::uint64_t packets_lost = 0;
  std::uint64_t blackholed_total = 0;  ///< sum over pods, whole run
  std::uint64_t delivered_total = 0;
  std::string detect_summary;       ///< LogHistogram::summary_us()
  std::string recovery_summary;
};

/// Builds the FaultPlan described by cfg["plan"] (scripted events or a
/// seeded-random generator). Throws std::runtime_error on bad kinds and
/// when "plan" is missing or has neither "events" nor "random".
FaultPlan chaos_plan_from_json(const JsonValue& cfg, std::uint16_t gateways,
                               NanoTime horizon);

/// Parse -> harness -> controller -> inject -> run -> collect.
/// Throws std::runtime_error on parse errors.
ChaosExperimentResult run_chaos_experiment_from_json(
    std::string_view json_text);

}  // namespace albatross
