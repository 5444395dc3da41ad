// The benchmark's three workloads and their in-situ runs. Each run is a
// batch job: a seed and a fixed virtual horizon fix the input, then the
// sources stop, a drain window lets in-flight packets land, and the
// packet ledger must close exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "common/histogram.hpp"
#include "core/platform.hpp"
#include "fleet/fleet_spec.hpp"
#include "spans.hpp"

namespace simbench {

using albatross::NanoTime;

enum class WorkloadKind { kPodBurst, kPodTiered, kFleetDiurnal };

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view s);
[[nodiscard]] const char* workload_name(WorkloadKind w);
[[nodiscard]] bool is_pod(WorkloadKind w);

/// Single-pod configuration shared by the in-situ run and the isolated
/// layer replays, so both see the same tables, geometry and arrivals.
struct PodWorkload {
  albatross::ServiceKind service = albatross::ServiceKind::kVpcVpc;
  std::uint16_t cores = 8;
  std::size_t batch = 32;  ///< ingress_batch = rx_burst
  std::uint32_t tenants = 200;
  std::uint32_t routes = 20'000;
  bool tiered = false;     ///< DPU tier + oracle + 10 ms housekeeping
  NanoTime horizon{0};
  NanoTime drain{0};
  albatross::PoissonFlowConfig traffic;
};

/// The pod workloads' configurations. For fleet_diurnal this is one
/// gateway of the scenario (VPC-VPC, 4 cores, scalar pump, ~17 Kpps),
/// used only by the layer replays.
[[nodiscard]] PodWorkload pod_workload(WorkloadKind w, std::uint64_t seed,
                                       const albatross::fleet::FleetSpec* fleet);

/// Packet-conservation ledger of one run. `emitted` is counted by the
/// benchmark's source decorator, the rest by the simulator.
struct Ledger {
  std::uint64_t emitted = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rate_limit = 0;
  std::uint64_t reorder_full = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t service_drops = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t split_drops = 0;  ///< split headers whose payload was lost
  std::uint64_t protocol = 0;     ///< priority class, consumed by ctrl cores

  [[nodiscard]] std::uint64_t accounted() const {
    return delivered + rate_limit + reorder_full + blackholed +
           service_drops + ring_drops + split_drops + protocol;
  }
  /// Packets the ledger cannot place: emitted but never offered, or
  /// offered but in no outcome bucket.
  [[nodiscard]] std::uint64_t unaccounted() const;
};

/// In-situ layer statistics, filled on every run (they are cheap
/// counters read after the run).
struct InSitu {
  std::uint64_t in_order_tx = 0;
  std::uint64_t timeout_releases = 0;
  std::uint64_t best_effort_tx = 0;
  std::uint64_t offload_hits = 0;  ///< served on the NIC (FPGA + DPU)
  std::uint64_t fpga_hits = 0;
  std::uint64_t dpu_hits = 0;
  std::uint64_t migrations = 0;    ///< tier admissions+promotions+demotions+evictions
  std::uint64_t cpu_processed = 0;
  double core_util = 0.0;          ///< modelled busy / virtual time, mean
};

/// Traced-run extras; untouched when tracing is off.
struct Trace {
  double source_s = 0.0;            ///< wall time inside the source decorator
  AllocCounts allocs;               ///< during the run phase
  albatross::LogHistogram event_wall_ns;  ///< gap between loop events
};

struct RunOptions {
  bool traced = false;
  /// When set, the run's phases (set-up, run to the horizon, drain) are
  /// recorded as spans under the currently open one.
  Spans* spans = nullptr;
  /// Test hook: the decorator swallows the emitted packet with this
  /// 1-based index (0 = none), so the ledger must catch it.
  std::uint64_t swallow_packet = 0;
  /// Overrides for small test configurations (0 = workload default).
  NanoTime horizon{0};
  double rate_pps = 0.0;
};

struct RunOutcome {
  double setup_s = 0.0;  ///< building the workload, up to the first event
  double run_s = 0.0;    ///< horizon + drain
  double run_cpu_s = 0.0;  ///< thread CPU time of the run phase
  std::uint64_t events = 0;
  std::uint64_t offered_at_horizon = 0;
  std::uint64_t events_at_horizon = 0;
  std::uint64_t conformance_violations = 0;
  Ledger ledger;
  InSitu in_situ;
  Trace trace;
  std::string fingerprint;  ///< modelled outputs, identical per seed
};

[[nodiscard]] RunOutcome run_pod(WorkloadKind w, std::uint64_t seed,
                                 const RunOptions& opt);

/// Builds the fleet (population + every AZ) `builds` times, appending
/// each build's set-up seconds to `setup_s`, and runs the last build.
[[nodiscard]] RunOutcome run_fleet(const albatross::fleet::FleetSpec& spec,
                                   int builds, const RunOptions& opt,
                                   std::vector<double>& setup_s);

/// Loads a fleet scenario file and applies the seed.
[[nodiscard]] albatross::fleet::FleetSpec load_fleet_spec(
    const std::string& path, std::uint64_t seed);

}  // namespace simbench
