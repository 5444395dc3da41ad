// pkt_dir: the programmable packet-direction table at the head of the
// NIC ingress pipeline (§3.2, Fig. 1). It splits arriving traffic into
//   - priority pkts : control-plane protocols (BGP/BFD) -> priority queues
//   - RSS pkts      : stateful / low-volume classes kept flow-affine
//   - PLB pkts      : bulk data packets sprayed per-packet
// Each GW pod programs its own slice: per-class delivery mode (whole
// packet vs header-only) and explicit overrides for flows that must not
// be sprayed (Zoonet probes, health checks, vSwitch-learning packets).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/packet.hpp"
#include "tables/cuckoo_table.hpp"

namespace albatross {

enum class DeliveryMode : std::uint8_t { kWholePacket, kHeaderOnly };

/// Per-pod pkt_dir programming.
struct PktDirConfig {
  /// Default class for tenant data packets.
  PktClass default_class = PktClass::kPlb;
  /// Steer protocol packets (BGP/BFD) into the dedicated priority
  /// queues (§4.3's second GOP technique). Disabling this is the
  /// ablation: protocol packets then ride the data path and share its
  /// fate under overload — the failure mode that takes BFD (and with it
  /// BGP) down exactly when the gateway is busiest.
  bool priority_queues_enabled = true;
  DeliveryMode data_delivery = DeliveryMode::kWholePacket;
  /// Frames larger than this are delivered header-only when the pod
  /// enables split mode (jumbo-frame PCIe relief, App. A).
  std::size_t header_split_threshold = 512;
  /// Ports treated as stateful probes and pinned to RSS regardless of
  /// the default class (Zoonet, health checks).
  std::vector<std::uint16_t> rss_pinned_dst_ports;
};

struct PktDirStats {
  std::uint64_t priority = 0;
  std::uint64_t rss = 0;
  std::uint64_t plb = 0;
};

struct PktDirDecision {
  PktClass cls = PktClass::kPlb;
  DeliveryMode delivery = DeliveryMode::kWholePacket;
};

/// One pkt_dir instance serves the whole NIC; per-pod slices are rows in
/// its config table (SR-IOV virtualisation splits the table, §5).
// fpga: lut=6'500, bram_bits=262'144, cycles=12
class PktDir {
 public:
  void configure_pod(PodId pod, PktDirConfig cfg);
  [[nodiscard]] const PktDirConfig& pod_config(PodId pod) const;

  /// Classifies a packet for its pod from its annotated metadata (the
  /// basic pipeline's parse has filled in the tuple).
  PktDirDecision classify_annotated(PodId pod, const Packet& pkt);

  [[nodiscard]] const PktDirStats& stats() const { return stats_; }

 private:
  PktDirDecision decide(const PktDirConfig& cfg, bool is_protocol,
                        const FiveTuple& tuple, std::size_t frame_len);

  std::vector<PktDirConfig> pod_cfgs_;
  PktDirConfig default_cfg_;
  PktDirStats stats_;
};

}  // namespace albatross
