// PCIe DMA model between the FPGA NIC and host memory. Tab. 4 shows DMA
// dominates NIC-pipeline latency (3.17us RX / 2.98us TX of the ~8us
// total), so the model carries a base latency plus a bandwidth term, and
// reproduces the "insufficient PCIe driver descriptors" anomaly (§4.1-4):
// when in-flight transfers exceed the descriptor ring, new work queues
// behind the channel and latency balloons.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace albatross {

struct DmaConfig {
  NanoTime base_latency = NanoTime{3170};       ///< per-transfer setup+completion
  double bandwidth_gbps = 200.0;      ///< PCIe Gen4 x16 effective
  std::uint32_t descriptors = 1024;   ///< ring depth
};

struct DmaStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  std::uint64_t descriptor_stalls = 0;
  std::uint64_t faulted_transfers = 0;  ///< completed inside a fault window
};

/// One DMA direction (RX toward host or TX toward wire) of one NIC.
/// Cycles are the slower (RX) Tab. 4 base cost; BRAM covers descriptor
/// rings and the PCIe reassembly staging for both directions.
// fpga: lut=22'820, bram_bits=3'445'000, cycles=1585
class DmaChannel {
 public:
  explicit DmaChannel(DmaConfig cfg = {}) : cfg_(cfg) {}

  /// Schedules a transfer of `bytes` submitted at `now`; returns its
  /// completion time. Transfers serialise on the channel.
  NanoTime transfer(NanoTime now, std::size_t bytes);

  [[nodiscard]] const DmaStats& stats() const { return stats_; }
  [[nodiscard]] const DmaConfig& config() const { return cfg_; }

  /// Fault injection (chaos subsystem): transfers submitted before
  /// `until` pay `slowdown`x latency, modelling a PCIe error-retry storm
  /// or a degraded DMA engine. The window replaces any earlier one.
  void inject_fault(NanoTime until, double slowdown = 8.0) {
    fault_until_ = until;
    fault_slowdown_ = slowdown > 1.0 ? slowdown : 1.0;
  }

 private:
  DmaConfig cfg_;
  NanoTime channel_free_ = NanoTime{0};
  NanoTime fault_until_ = NanoTime{0};
  double fault_slowdown_ = 1.0;
  DmaStats stats_;
};

}  // namespace albatross
