// Isolated layer replays: each drives one layer's public functions
// alone on a workload's own configuration and arrivals, and reports
// wall nanoseconds per call (per packet for batched calls).
#pragma once

#include <cstddef>
#include <cstdint>

#include "workloads.hpp"

namespace simbench {

/// Per-outcome verdicts of an ingress replay.
struct IngressVerdicts {
  std::uint64_t delivered = 0;
  std::uint64_t rate_limit = 0;
  std::uint64_t reorder_full = 0;
  std::uint64_t offloaded = 0;
};

struct NicCosts {
  double ingress_ns = 0.0;  ///< NicPipeline ingress at the workload's batch
  double egress_ns = 0.0;   ///< tx_submit + egress_into + drain_expired_into
  IngressVerdicts verdicts;
};

/// Replays the first `n` arrivals of the workload through a fresh
/// NicPipeline built like the workload's (pod geometry, DPU tier).
/// Delivered packets return through the egress path in arrival order
/// after a fixed service gap, so the reorder FIFO keeps draining.
[[nodiscard]] NicCosts replay_nic(const PodWorkload& pw, std::size_t n);

[[nodiscard]] double replay_emit_ns(const PodWorkload& pw, std::size_t n);
[[nodiscard]] double replay_gop_admit_ns(const PodWorkload& pw, std::size_t n);
[[nodiscard]] double replay_dma_ns(const PodWorkload& pw, std::size_t n);

struct PlbCosts {
  double dispatch_ns = 0.0;
  double next_deadline_ns = 0.0;
};
[[nodiscard]] PlbCosts replay_plb(const PodWorkload& pw, std::size_t n);

/// DpuTier::serve on the workload's tuples; misses are reported back as
/// CPU forwards 10 us later, so warm flows get admitted as in situ.
[[nodiscard]] double replay_dpu_serve_ns(const PodWorkload& pw, std::size_t n);

/// EventLoop::schedule_at + fire with a delay mix of packet-path gaps,
/// reorder timeouts and, when `control_timers`, second-scale BFD/BGP
/// timers that make the wheel cascade.
[[nodiscard]] double replay_event_ns(std::size_t n, bool control_timers);

/// PacketRing::push_burst + pop_burst per packet at the workload's burst.
[[nodiscard]] double replay_ring_ns(const PodWorkload& pw, std::size_t n);

/// Service::process_burst per packet for the workload's service.
[[nodiscard]] double replay_service_ns(const PodWorkload& pw, std::size_t n);

struct TableCosts {
  double populate_s = 0.0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] TableCosts replay_tables(const PodWorkload& pw);

}  // namespace simbench
