// FleetEngine: multi-AZ, million-tenant cluster simulation. Each AZ is
// a full GatewayChaosHarness (Platform + FPGA NIC + GW pods +
// Orchestrator + uplink switch + BGP proxies + BFD) with its own
// RecoveryController and FaultInjector; the engine layers the fleet
// concerns on top:
//
//  - a TenantPopulation hash-shards millions of Zipf-weighted tenants
//    across every gateway, sizing each pod's offered rate and flow mix;
//  - a DiurnalCurve modulates per-AZ load in diurnal slices; AZs are
//    traffic-independent, so each AZ runs its whole scenario on its own
//    worker thread and the reports, merged in AZ-index order after the
//    join, are byte-identical across same-seed runs and thread counts;
//  - a rolling upgrade wave redeploys gateways through the
//    orchestrator's make-before-break scale_up path — a healthy wave
//    must cost zero blackhole, and the SLO report proves it;
//  - fault scripts scoped per-AZ or fleet-wide replay through each AZ's
//    injector, with the RecoveryController timelines aggregated into
//    the fleet availability SLO report (fleet/slo.hpp);
//  - a ConformanceHarness per AZ runs the packet-conservation ledger
//    after a post-horizon drain (check_ledger_now — BFD keeps the loop
//    pending forever, so the quiesce-gated finish() path can't run).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/recovery.hpp"
#include "check/fuzz.hpp"
#include "fleet/fleet_spec.hpp"
#include "fleet/slo.hpp"
#include "fleet/tenant_population.hpp"

namespace albatross::fleet {

/// One planned gateway replacement in the rolling-upgrade wave.
struct FleetUpgradeRecord {
  std::uint32_t az = 0;
  std::uint16_t gateway = 0;  ///< AZ-local index
  NanoTime scheduled = NanoTime{0};
  NanoTime ready_at = NanoTime{0};
  NanoTime cutover = NanoTime{0};
  bool started = false;   ///< redeploy ticket issued
  bool completed = false; ///< old placement released at cutover
  bool skipped = false;   ///< gateway was mid-incident / no capacity
};

struct FleetAzResult {
  std::string name;
  std::uint16_t gateways = 0;
  ChaosHarnessCounters counters;
  FaultInjectorStats injected;
  std::vector<IncidentRecord> incidents;
  std::string timeline;  ///< RecoveryController::timeline()
  /// Summed blackhole windows per AZ-local gateway (open incidents
  /// extend to the horizon).
  std::vector<NanoTime> gateway_downtime;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t dropped = 0;  ///< rate-limit + reorder-full
  std::uint64_t packets_lost = 0;
  LogHistogram detect_hist;
  LogHistogram blackhole_hist;
  LogHistogram recovery_hist;
  std::uint64_t ledger_violations = 0;
  std::uint64_t upgrades_started = 0;
  std::uint64_t upgrades_completed = 0;
};

struct FleetResult {
  std::vector<FleetAzResult> azs;
  std::vector<FleetUpgradeRecord> upgrades;
  SloReport slo;
  std::uint64_t events_total = 0;
  std::uint64_t conformance_violations = 0;  ///< summed over AZs

  /// Canonical text rendering (timelines + SLO): two same-seed runs
  /// must produce byte-identical output.
  [[nodiscard]] std::string report_text() const;
};

class FleetEngine {
 public:
  explicit FleetEngine(FleetSpec spec);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Executes the scenario. Every AZ runs on a worker thread (AZ i on
  /// worker i % W, W = min(AZs, hardware threads), the caller being
  /// worker 0): diurnal slices over `horizon`, then a source-quiesced
  /// drain window and the conservation ledger. Rethrows the exception of
  /// the lowest-index AZ that failed, after every worker has finished.
  void run();

  /// Aggregates per-AZ results and builds the SLO report. Valid after
  /// run().
  [[nodiscard]] FleetResult collect() const;

  [[nodiscard]] const FleetSpec& spec() const { return spec_; }
  [[nodiscard]] const TenantPopulation& population() const {
    return population_;
  }
  [[nodiscard]] std::size_t az_count() const { return azs_.size(); }
  GatewayChaosHarness& az_harness(std::size_t i) { return *azs_[i].harness; }
  RecoveryController& az_controller(std::size_t i) {
    return *azs_[i].controller;
  }
  [[nodiscard]] const check::ConformanceHarness& az_conformance(
      std::size_t i) const {
    return *azs_[i].conformance;
  }

 private:
  struct AzRuntime {
    FleetAzSpec az_spec;
    std::uint32_t gateway_base = 0;  ///< fleet-global index of gateway 0
    DiurnalCurve curve;
    std::unique_ptr<GatewayChaosHarness> harness;
    std::unique_ptr<RecoveryController> controller;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<check::ConformanceHarness> conformance;
    std::vector<PoissonFlowSource*> sources;  ///< per local gateway
    std::vector<double> base_rate;            ///< pps at multiplier 1.0
    std::uint64_t ledger_violations = 0;
  };

  void build_az(std::size_t i);
  /// One AZ's whole run: slices, drain and ledger. Touches only `az`,
  /// its own upgrade records and the read-only spec and population.
  void run_az(AzRuntime& az);
  void schedule_faults();
  void schedule_upgrades();
  void apply_diurnal(AzRuntime& az, NanoTime t);
  [[nodiscard]] SloReport build_slo(
      const std::vector<FleetAzResult>& azs) const;

  FleetSpec spec_;
  TenantPopulation population_;
  std::vector<AzRuntime> azs_;
  std::vector<FleetUpgradeRecord> upgrades_;
  bool ran_ = false;
};

/// Runs a fleet scenario end to end (ctor + run + collect).
FleetResult run_fleet(const FleetSpec& spec);

/// Shrunk-trace replay bridge: `albatross_sim fleet --scenario x.json`
/// accepts a conformance fuzz trace (detected by its "ops" array) and
/// replays it through check::run_trace, so a scenario the fuzz driver
/// shrank is directly re-runnable from the fleet CLI.
check::FuzzReport run_fleet_trace(const check::FuzzTrace& trace);

}  // namespace albatross::fleet

namespace albatross {
class MetricsRegistry;

/// Wires fleet-level aggregates into a registry: per-AZ incident and
/// packet counters, upgrade progress and the merged recovery
/// histograms. The engine must outlive the registry's scrapes.
void register_fleet_metrics(MetricsRegistry& registry,
                            fleet::FleetEngine& engine);

}  // namespace albatross
