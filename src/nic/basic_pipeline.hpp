// The basic pipeline (App. A): packet reception/transmission, VLAN
// encap/decap for SR-IOV VF steering, parsing/deparsing, and the
// header-payload split with its on-NIC payload buffer. Split mode keeps
// jumbo payloads on the FPGA and ships only headers over PCIe, then
// reassembles at the egress deparser — unless the payload was already
// released, in which case the header is dropped (the best-effort rule in
// §4.1's legal check discussion).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/packet.hpp"
#include "packet/parser.hpp"

namespace albatross {

/// Fixed-slot payload store. Capacity pressure evicts the oldest
/// payload (FIFO), modelling the NIC releasing buffers it can no longer
/// afford to hold for straggling headers.
// fpga: lut=12'000, bram_bits=16'777'216, cycles=0
class PayloadBuffer {
 public:
  /// Slot index occupies the low 13 bits of a payload id; the top 3 bits
  /// carry a generation tag so a stale header whose slot was reused is
  /// detected (and dropped) instead of reassembled with a stranger's
  /// payload.
  static constexpr std::uint16_t kSlotBits = 13;
  static constexpr std::uint16_t kSlotMask = (1u << kSlotBits) - 1;

  explicit PayloadBuffer(std::uint16_t slots = 8192);

  /// Stores `payload`; returns the payload id (slot | generation),
  /// evicting the oldest entry if full.
  std::uint16_t store(std::vector<std::uint8_t> payload);

  /// Fetches and releases a payload; nullopt if it was evicted.
  std::optional<std::vector<std::uint8_t>> fetch_release(std::uint16_t id);

  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Resident bytes, feeding the FPGA BRAM ledger.
  [[nodiscard]] std::size_t bytes_in_use() const { return bytes_; }

 private:
  struct Slot {
    std::vector<std::uint8_t> payload;
    bool valid = false;
    std::uint64_t age = 0;  // store sequence, for FIFO eviction
  };

  std::vector<Slot> slots_;
  std::uint64_t next_age_ = 1;
  std::uint16_t cursor_ = 0;
  std::size_t in_use_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

struct BasicPipelineStats {
  std::uint64_t rx_frames = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t vlan_decap = 0;
  std::uint64_t vlan_encap = 0;
  std::uint64_t split_headers = 0;
  std::uint64_t reassembled = 0;
  std::uint64_t headers_dropped_payload_gone = 0;
  std::uint64_t parse_errors = 0;
};

/// Byte split point in header-payload-split mode: enough for the whole
/// overlay header stack.
constexpr std::size_t kHeaderSplitBytes = 128;

/// Parser / deparser / MAC logic (Tab. 5 "Basic Pipeline" row less the
/// payload buffer, carried by PayloadBuffer above); 290 RX + 420 TX
/// cycles (Tab. 4).
// fpga: lut=379'591, bram_bits=84'800'000, cycles=710
class BasicPipeline {
 public:
  explicit BasicPipeline(std::uint16_t payload_slots = 8192);

  /// RX direction: VLAN decap (returns the VF-steering vlan id if the
  /// frame was tagged) and metadata annotation via the parser. Returns
  /// false on a parse error (packet still usable via annotations).
  bool rx_process(Packet& pkt, std::optional<std::uint16_t>& vlan_id);

  /// Applies header-payload split: moves the tail beyond
  /// kHeaderSplitBytes into the payload buffer, truncating the packet.
  /// Returns the payload slot id, or nullopt when below the threshold.
  std::optional<std::uint16_t> split(Packet& pkt);

  /// TX direction: reassembles a split packet (false = payload evicted,
  /// drop the header) and re-applies the VLAN tag when requested.
  bool tx_process(Packet& pkt, const PlbMeta& meta,
                  std::optional<std::uint16_t> vlan_id);

  [[nodiscard]] const BasicPipelineStats& stats() const { return stats_; }

 private:
  PayloadBuffer payloads_;
  BasicPipelineStats stats_;
};

}  // namespace albatross
