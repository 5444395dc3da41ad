// Gateway service framework. A GW pod runs exactly one service (Tab. 2):
// VPC-VPC, VPC-Internet, VPC-IDC or VPC-CloudService. Services perform
// *real* lookups against the pod's forwarding tables (VXLAN LPM routes,
// VM-NC mapping, ACL) and report a per-packet CPU time composed of a
// fixed instruction cost plus one memory-access sample per table touch —
// which is how the §4.2 result (RSS ~ PLB because DRAM dominates)
// emerges rather than being hard-coded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"
#include "sim/cache_model.hpp"
#include "tables/acl.hpp"
#include "tables/flow_table.hpp"
#include "tables/lpm_dir24.hpp"
#include "tables/vm_nc_map.hpp"

namespace albatross {

enum class ServiceKind : std::uint8_t {
  kVpcVpc,
  kVpcInternet,
  kVpcIdc,
  kVpcCloudService,
};

[[nodiscard]] std::string_view service_name(ServiceKind k);

/// Forwarding state shared by all data cores of a pod. Tables are
/// read-mostly; the stateful conntrack partition is per-core (§7).
struct ServiceTables {
  LpmDir24 vxlan_routes;    ///< VXLAN routing (the >10M-rule table)
  VmNcMap vm_nc;            ///< VM -> NC mapping
  Acl acl;
  LpmDir24 internet_routes; ///< public routes for VPC-Internet
  std::vector<std::unique_ptr<FlowTable>> per_core_conntrack;

  /// Populates synthetic-yet-consistent content sized for `tenants`
  /// tenants so generator traffic resolves end to end.
  void populate(std::uint32_t tenants, std::uint32_t routes,
                std::uint16_t data_cores);

  /// Total resident bytes — the cache model's working set.
  [[nodiscard]] std::uint64_t memory_bytes() const;
};

enum class ServiceAction : std::uint8_t { kForward, kDrop };

struct ServiceOutcome {
  ServiceAction action = ServiceAction::kForward;
  NanoTime cpu_ns = NanoTime{0};  ///< per-packet service time on the data core
};

/// Latency-tail / fault knobs (§4.1's corner-case code branches; fixed in
/// production but reproducible here for the HOL experiments).
struct ServiceFaults {
  double slow_branch_probability = 0.0;  ///< e.g. 1e-4
  NanoTime slow_branch_ns = 2 * kMillisecond;
  /// Heavy-tail jitter of normal processing (truncated Pareto). §4.1-3:
  /// normal packets stay under the 50us processing ceiling — stalls long
  /// enough to trip the reorder HOL timeout are modelled exclusively by
  /// the slow-branch fault above, so the truncation cap keeps the two
  /// fault populations disjoint. 0 disables the cap.
  double jitter_probability = 2e-3;
  NanoTime jitter_scale_ns = 8 * kMicrosecond;
  double jitter_pareto_alpha = 2.2;
  NanoTime jitter_cap_ns = 50 * kMicrosecond;
};

/// A burst of packets drained from one RX ring, laid out
/// struct-of-arrays: the owning pointers sit in one lane and the
/// per-packet metadata the service loop touches (affinity, service-rng
/// stream, outcome) in separate contiguous lanes (docs/BURST_API.md).
struct PacketBurst {
  static constexpr std::size_t kMaxBurst = 32;

  std::size_t count = 0;
  std::array<PacketPtr, kMaxBurst> pkts;
  /// Whether this core sees the packet's flow repeatedly (RSS / pinned
  /// class) — the cache model's private-cache bonus signal.
  std::array<bool, kMaxBurst> flow_affine{};
  /// Per-packet service-rng stream seed. Non-zero seeds make service
  /// randomness a pure function of the packet (burst-size invariant,
  /// which the burst-vs-scalar differential oracle requires); zero
  /// falls back to the caller's shared Rng.
  std::array<std::uint64_t, kMaxBurst> rng_seed{};
  std::array<ServiceOutcome, kMaxBurst> outcomes{};
};

class Service {
 public:
  virtual ~Service() = default;

  [[nodiscard]] virtual ServiceKind kind() const = 0;

  /// Processes one packet on `core` (a pod-local data core index).
  /// `flow_affine` tells the cache model whether this core sees the flow
  /// repeatedly (RSS) or not (PLB).
  virtual ServiceOutcome process(Packet& pkt, CoreId core, bool flow_affine,
                                 NanoTime now, Rng& rng) = 0;

  /// Processes `burst.count` packets by calling process() on each in
  /// lane order, writing one outcome per lane entry. `flow_affine` is
  /// the burst-wide hint, OR-ed with the per-packet lane. A non-zero
  /// seed lane gives the packet its own Rng; zero uses `rng`.
  void process_burst(PacketBurst& burst, CoreId core, bool flow_affine,
                     NanoTime now, Rng& rng);
};

struct ServiceProfile {
  NanoTime base_ns;          ///< fixed instruction cost
  std::uint16_t mem_accesses;///< DRAM/L3 touches across its table chain
};

/// Per-service cost profiles calibrated so 44 data cores land on the
/// Tab. 3 packet rates under the default cache model.
[[nodiscard]] ServiceProfile service_profile(ServiceKind k);

/// Factory: builds the service implementation for `kind` over shared
/// tables + cache model.
std::unique_ptr<Service> make_service(ServiceKind kind, ServiceTables& tables,
                                      CacheModel& cache,
                                      NumaNodeId numa_node,
                                      ServiceFaults faults = {});

}  // namespace albatross
