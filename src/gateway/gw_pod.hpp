// GW pod: one containerized gateway instance. Owns data cores (each an
// M/G/1 server fed by its RX descriptor ring), ctrl cores for protocol
// packets, the service implementation and the drop-flag signalling back
// to the NIC pipeline. Scheduled entirely on the discrete-event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/hooks.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "gateway/service.hpp"
#include "sim/event_loop.hpp"
#include "sim/numa.hpp"
#include "sim/ring.hpp"

namespace albatross {

struct GwPodConfig {
  PodId id = 0;
  ServiceKind service = ServiceKind::kVpcVpc;
  std::uint16_t data_cores = 8;
  std::uint16_t ctrl_cores = 2;
  NumaNodeId numa_node{};
  std::size_t rx_ring_capacity = 1024;
  /// RX drain burst size (clamped to PacketBurst::kMaxBurst; 0 -> 1).
  /// Burst size never changes the packet ledger — completions are
  /// chained per packet so ring occupancy, drop points and egress order
  /// are identical for any value (docs/BURST_API.md) — it only changes
  /// how much work each event-loop activation amortizes.
  std::size_t rx_burst = 32;
  /// Send the active drop flag to the NIC on CPU-side drops (Fig. 12
  /// ablation: disabling it turns every drop into a 100us HOL stall).
  bool drop_flag_enabled = true;
  ServiceFaults faults;
  std::uint64_t seed = 101;
  /// Per-core stall source (numa_balancing model).
  bool numa_balancing = false;
  NanoTime numa_balancing_scan_period = 100 * kMillisecond;
};

struct GwPodStats {
  std::uint64_t processed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped_service = 0;   ///< ACL / rate-rule drops on CPU
  std::uint64_t dropped_ring = 0;      ///< RX descriptor ring overflow
  std::uint64_t protocol_packets = 0;  ///< handled on ctrl cores
  std::uint64_t drop_flags_sent = 0;
};

class GwPod {
 public:
  /// Egress sink: a processed packet being submitted to the NIC TX queue
  /// at `submit_time` (drop-flag notifications travel the same way).
  using EgressFn = std::function<void(PacketPtr, NanoTime)>;
  /// Ctrl-plane sink for priority (BGP/BFD) packets.
  using ProtocolFn = std::function<void(PacketPtr, NanoTime)>;
  /// Observer for CPU-side data-path drops (RX ring overflow and
  /// service drops), fired with the dropped packet's flow identity.
  /// The DPU tier's handover gate uses it to release in-flight credits
  /// — a dropped packet will never reach the wire, so a tier admission
  /// after it cannot reorder anything.
  using DropFn = std::function<void(const FiveTuple&, PktClass, NanoTime)>;

  GwPod(const GwPodConfig& cfg, EventLoop& loop, ServiceTables& tables,
        CacheModel& cache);

  void set_egress(EgressFn fn) { egress_ = std::move(fn); }
  void set_protocol_handler(ProtocolFn fn) { protocol_ = std::move(fn); }
  void set_drop_hook(DropFn fn) { drop_hook_ = std::move(fn); }

  /// Packet delivery from the NIC at its RX-DMA completion time.
  /// `rx_queue` selects the data core (kPriorityQueue -> ctrl path).
  void deliver(PacketPtr pkt, std::uint16_t rx_queue, NanoTime now);

  [[nodiscard]] const GwPodConfig& config() const { return cfg_; }
  [[nodiscard]] const GwPodStats& stats() const { return stats_; }

  /// Cumulative busy nanoseconds of a data core (utilisation oracle).
  [[nodiscard]] NanoTime core_busy_ns(CoreId core) const;
  [[nodiscard]] std::uint64_t core_processed(CoreId core) const;

  /// Service-time distribution observed on the pod (CPU time only).
  [[nodiscard]] const LogHistogram& service_histogram() const {
    return service_hist_;
  }

  Service& service() { return *service_; }
  NumaBalancer& balancer() { return balancer_; }

  /// Fault injection (chaos subsystem): freezes one data core until
  /// `now + duration` — packets landing on it during the window pay the
  /// remaining stall on top of their service time, so its RX ring backs
  /// up exactly like a run loop wedged on a lock.
  void inject_core_stall(CoreId core, NanoTime duration, NanoTime now);
  [[nodiscard]] std::uint64_t core_stalls() const { return core_stalls_; }

  /// Arms a conformance probe on the pod's packet ledger (src/check);
  /// nullptr disarms.
  void set_probe(GwPodProbeHook* probe) { probe_ = probe; }

 private:
  struct Core {
    PacketRing ring;
    bool busy = false;
    NanoTime busy_ns = NanoTime{0};
    NanoTime stall_until = NanoTime{0};
    std::uint64_t processed = 0;
    /// In-flight burst: packets popped from the ring whose outcomes are
    /// precomputed; emitted one per completion event.
    PacketBurst burst;
    std::size_t burst_next = 0;      ///< next packet index to emit
    NanoTime next_done = NanoTime{0};///< completion time of burst_next
    Core(std::size_t cap) : ring(cap) {}
  };

  /// Pops up to rx_burst packets, runs the service over the whole burst
  /// and dispatches the first completion. Idle-transitions when empty.
  void start_core(CoreId core, NanoTime now);
  /// Charges packet `burst_next` (balancer stall + injected-stall
  /// carryover) and schedules its emit event.
  void dispatch_next(CoreId core, NanoTime now);
  /// Emit event body: emits packet `burst_next`, then dispatches the
  /// burst's next packet (releasing its ring credit) or refills.
  void emit_next(CoreId core);
  void emit_packet(CoreId core, PacketPtr pkt, ServiceOutcome outcome,
                   NanoTime done);
  /// Derived per-packet service-rng seed: makes service randomness a
  /// pure function of (pod seed, packet identity) so outcomes do not
  /// depend on burst size. Never returns 0.
  [[nodiscard]] std::uint64_t packet_rng_seed(const Packet& pkt) const;

  GwPodConfig cfg_;
  EventLoop& loop_;
  std::unique_ptr<Service> service_;
  std::vector<std::unique_ptr<Core>> cores_;
  Rng rng_;
  NumaBalancer balancer_;
  EgressFn egress_;
  ProtocolFn protocol_;
  DropFn drop_hook_;
  GwPodStats stats_;
  GwPodProbeHook* probe_ = nullptr;
  std::uint64_t core_stalls_ = 0;
  LogHistogram service_hist_;
  double recent_load_ = 0.0;  ///< smoothed, drives the balancer model
};

}  // namespace albatross
