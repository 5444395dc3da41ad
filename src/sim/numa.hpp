// NUMA topology and memory-latency model for the Albatross server:
// 2 NUMA nodes x 48 cores, 512 GB DDR5 per node, UPI interconnect.
// Reproduces the §7 lessons: cross-NUMA placement costs ~14% on real
// services (Fig. 16) and the kernel's automatic NUMA balancing injects
// latency bursts at high load when pods are pinned (Fig. 17).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace albatross {

struct NumaConfig {
  std::uint16_t nodes = 2;
  std::uint16_t cores_per_node = 48;
  std::uint64_t memory_per_node_gb = 512;
  NanoTime local_dram_ns = NanoTime{90};    ///< DDR5-4800 loaded latency class
  NanoTime remote_dram_ns = NanoTime{150};  ///< + UPI hop
  /// DDR data rate (MT/s); latency scales with 4800/frequency, the §4.2
  /// observation that 4800->5600 brings ~8% gateway speedup.
  std::uint32_t memory_mts = 4800;
};

class NumaTopology {
 public:
  explicit NumaTopology(NumaConfig cfg = {});

  [[nodiscard]] const NumaConfig& config() const { return cfg_; }
  [[nodiscard]] NumaNodeId node_of_core(CoreId core) const {
    return NumaNodeId{
        static_cast<std::uint16_t>(core.value() / cfg_.cores_per_node)};
  }
  [[nodiscard]] std::uint16_t total_cores() const {
    return static_cast<std::uint16_t>(cfg_.nodes * cfg_.cores_per_node);
  }

  /// DRAM access latency for a core touching memory homed on mem_node,
  /// scaled by the configured memory frequency.
  [[nodiscard]] NanoTime dram_latency(NumaNodeId core_node,
                                      NumaNodeId mem_node) const;

  void set_memory_mts(std::uint32_t mts) { cfg_.memory_mts = mts; }

 private:
  NumaConfig cfg_;
};

/// Model of the kernel `numa_balancing` feature. When enabled and the
/// gateway pod is pinned to one node, the balancer periodically unmaps
/// pages / migrates tasks to probe locality, stalling the data core.
/// The probability of a stall per scan grows with CPU load (the effect
/// only became visible at ~90% load in production, Fig. 17).
class NumaBalancer {
 public:
  struct Config {
    bool enabled = true;
    NanoTime scan_period = 100 * kMillisecond;
    NanoTime stall_ns = 300 * kMicrosecond;  ///< page-fault storm burst
    double stall_probability_at_full_load = 0.9;
  };

  NumaBalancer();
  explicit NumaBalancer(Config cfg);

  /// Called by a core's run loop; returns a stall to add to the current
  /// packet's service time (0 almost always). Uses an internal RNG so
  /// enabling the balancer never perturbs the caller's random stream
  /// (A/B comparisons stay paired).
  NanoTime maybe_stall(NanoTime now, double core_load);

  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  Rng rng_{0x5ca1ab1e};
  NanoTime next_scan_ = NanoTime{0};
  std::uint64_t stalls_ = 0;
};

}  // namespace albatross
