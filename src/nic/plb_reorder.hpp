// plb_reorder: the egress order-restoration engine (§4.1, Fig. 3).
//
// One ReorderQueue models one order-preserving queue with the paper's
// three hardware structures, all 4K entries deep:
//   FIFO   — reorder info {PSN, arrival timestamp} appended at dispatch;
//            a packet may only be transmitted in order once its entry
//            reaches the FIFO head. head_ptr / tail_ptr are free-running.
//   BUF    — packets written back by the GW pod, indexed by psn[11:0].
//   BITMAP — a lightweight mirror of BUF (valid bit + PSN [+ drop flag])
//            used for O(1) order checks at the FPGA clock.
//
// The legal check validates a written-back packet using ONLY psn[11:0]
// against the head/tail window — deliberately aliasable (cheap hardware);
// stale timed-out packets that alias are caught later by the reorder
// check's full-PSN comparison (Case 3) and sent best-effort.
//
// Reorder check cases (verbatim from the paper):
//   Case 1: head queued > 100us            -> release head (HOL timeout)
//   Case 2: BITMAP invalid                 -> keep waiting
//   Case 3: BITMAP valid, PSN mismatch     -> send slot best-effort, wait
//   Case 4: BITMAP valid, PSN match        -> transmit in order
// Plus the active drop flag (Fig. 12): a write-back with meta.drop set
// releases FIFO/BUF/BITMAP resources without transmitting.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/hooks.hpp"
#include "packet/packet.hpp"

namespace albatross {

struct ReorderQueueStats {
  std::uint64_t reserved = 0;           ///< FIFO entries enqueued
  std::uint64_t fifo_full_drops = 0;    ///< ingress drops: FIFO exhausted
  std::uint64_t in_order_tx = 0;        ///< Case 4 transmissions
  std::uint64_t best_effort_tx = 0;     ///< Case 3 + legal-check failures
  std::uint64_t timeout_releases = 0;   ///< Case 1: HOL events
  std::uint64_t drop_releases = 0;      ///< active drop-flag releases
  std::uint64_t header_only_payload_lost = 0;
  std::uint64_t legal_check_fail = 0;
  std::uint64_t legal_check_alias = 0;  ///< stale pkt passing legal check
};

/// A packet leaving the reorder engine toward the wire.
struct ReorderEgress {
  PacketPtr pkt;        ///< null for pure releases (drop flag / timeout)
  bool in_order = true; ///< false = best-effort (disordered) emission
  PlbMeta meta;         ///< stripped trailer (header-only reassembly info)
};

/// BRAM is the whole-NIC BUF/BITMAP total at the default report
/// geometry (16 queues x 4096 entries x 23 B), Tab. 5 "PLB" row.
// fpga: lut=100'000, bram_bits=12'058'624, cycles=175
class ReorderQueue {
 public:
  explicit ReorderQueue(std::uint32_t entries = kReorderQueueEntries,
                        NanoTime timeout = kReorderTimeout);

  // --- dispatch (ingress) side -----------------------------------------
  /// Reserves the next PSN and appends reorder info to the FIFO.
  /// nullopt when the FIFO is full (the C1 trade-off: heavy-hitter pps
  /// beyond queue capacity becomes ingress loss).
  std::optional<Psn> reserve(NanoTime now);

  // --- CPU write-back (egress) side ------------------------------------
  /// Legal check + BUF/BITMAP update for a packet returned by the GW
  /// pod. May immediately emit a best-effort packet (legal-check
  /// failure), which is appended to `out`.
  void writeback(PacketPtr pkt, const PlbMeta& meta, NanoTime now,
                 std::vector<ReorderEgress>& out);

  /// Reorder check: drains the FIFO head while it is transmittable or
  /// expired, appending emissions to `out`.
  void drain(NanoTime now, std::vector<ReorderEgress>& out);

  /// Virtual time at which the current head times out (Case 1), if any.
  [[nodiscard]] std::optional<NanoTime> head_deadline() const;

  /// Fault injection (chaos subsystem): freezes the reorder check until
  /// `until`, modelling a wedged FPGA reorder module. Dispatch and
  /// write-back keep filling the structures; drain() refuses to emit, so
  /// HOL timeouts pile up and release in a burst once the stall lifts.
  void inject_stall(NanoTime until) {
    if (until > stuck_until_) stuck_until_ = until;
  }

  [[nodiscard]] std::uint32_t in_flight() const { return tail_ - head_; }
  [[nodiscard]] std::uint32_t capacity() const { return entries_; }
  [[nodiscard]] const ReorderQueueStats& stats() const { return stats_; }
  [[nodiscard]] NanoTime timeout() const { return timeout_; }

  /// Arms a conformance probe (src/check). `ordq_id` identifies this
  /// queue in probe reports. Pass nullptr to disarm.
  void set_probe(ReorderProbeHook* probe, std::uint16_t ordq_id) {
    probe_ = probe;
    ordq_id_ = ordq_id;
  }

  /// BRAM cost of one queue instance (FIFO + BITMAP + BUF descriptors),
  /// feeding the Tab. 5 resource ledger.
  [[nodiscard]] std::size_t bram_bytes() const;

 private:
  struct BitmapEntry {
    bool valid = false;
    bool drop = false;
    Psn psn = 0;
  };

  [[nodiscard]] std::uint32_t slot(Psn psn) const {
    return Psn12::slot_of(psn, entries_);
  }

  std::uint32_t entries_;
  NanoTime timeout_;
  // FIFO ring: PSN is the free-running tail counter at reserve time, so
  // the ring index of an entry is psn & (entries-1) and only timestamps
  // need storing (full PSN kept for clarity/asserts).
  std::vector<Psn> fifo_psn_;
  std::vector<NanoTime> fifo_ts_;
  std::uint32_t head_ = 0;  // free-running
  std::uint32_t tail_ = 0;  // free-running; next PSN to assign
  NanoTime stuck_until_ = NanoTime{0};
  std::vector<PacketPtr> buf_;
  std::vector<PlbMeta> buf_meta_;
  std::vector<BitmapEntry> bitmap_;
  ReorderQueueStats stats_;
  ReorderProbeHook* probe_ = nullptr;
  std::uint16_t ordq_id_ = 0;
};

}  // namespace albatross
