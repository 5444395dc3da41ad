// Fixed-capacity descriptor ring, the model of an RX/TX queue pair slice
// between the FPGA NIC and a data core. Overflow means tail drop — the
// "RX/TX queue congestion" HOL source listed in §4.1 — and every drop is
// accounted because drops on the CPU side are precisely what leaves
// reorder-FIFO entries stranded.
//
// Storage is a flat circular buffer (power-of-two independent; head
// index + size, modulo capacity) so burst drains touch one contiguous
// or at most two contiguous slot runs — the same layout as a hardware
// descriptor ring. push() is the one enqueue path (push_burst loops
// it); pop_burst() is the one dequeue path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "packet/packet.hpp"

namespace albatross {

/// Outcome of a ring enqueue; call sites must handle kFull explicitly.
/// push() takes the packet by value, so on kFull the packet is already
/// freed: a caller that needs its identity reads it before pushing.
enum class PushResult : std::uint8_t {
  kOk,    ///< packet accepted, ownership transferred to the ring
  kFull,  ///< tail drop counted; the packet was freed inside push()
};

struct RingStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t drops = 0;
  std::uint64_t high_watermark = 0;
};

class PacketRing {
 public:
  /// Capacity is required and immutable: silent default sizing hid ring
  /// dimensioning bugs behind 1024-slot rings.
  explicit PacketRing(std::size_t capacity)
      : capacity_(capacity),
        inv_capacity_(capacity == 0 ? 0.0 : 1.0 / static_cast<double>(capacity)),
        slots_(capacity) {}

  /// kFull (and a counted drop) when the ring is full. The ring owns the
  /// packet on kOk; on kFull it is freed when push() returns.
  PushResult push(PacketPtr pkt);

  /// Enqueues packets from `pkts` in order, through push(), until the
  /// ring fills.
  /// Returns the number accepted; accepted slots in `pkts` are nulled.
  /// Rejected packets (the span tail) remain owned by the caller and
  /// are each counted as a drop.
  std::size_t push_burst(std::span<PacketPtr> pkts);

  /// Dequeues up to `out.size()` packets in FIFO order into `out`.
  /// Returns the number written; `out[0..n)` are valid, the rest are
  /// untouched.
  std::size_t pop_burst(std::span<PacketPtr> out);

  /// Descriptor-credit model for burst drains: packets popped in a
  /// burst still occupy their RX descriptors until the core actually
  /// starts servicing them (DPDK recycles the mbuf after processing,
  /// not at rx_burst). Holding keeps occupancy — and therefore tail
  /// drops — independent of the drain burst size.
  void hold(std::size_t n) { held_ += n; }
  void release_hold(std::size_t n) { held_ -= n < held_ ? n : held_; }
  [[nodiscard]] std::size_t held() const { return held_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ + held_ >= capacity_; }
  [[nodiscard]] const RingStats& stats() const { return stats_; }

  /// Occupancy in [0,1], the congestion signal run loops poll (held
  /// descriptors count: they are unavailable to producers). Uses the
  /// cached reciprocal of the (immutable) capacity: this runs once per
  /// scheduled packet, so the division was measurable on the bench.
  [[nodiscard]] double occupancy() const {
    return capacity_ == 0 ? 1.0
                          : static_cast<double>(size_ + held_) * inv_capacity_;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::size_t capacity_;
  double inv_capacity_;  ///< 1/capacity, cached at construction
  std::vector<PacketPtr> slots_;
  std::size_t head_ = 0;  ///< next slot to pop
  std::size_t size_ = 0;
  std::size_t held_ = 0;  ///< descriptor credits held by an in-flight burst
  RingStats stats_;
};

}  // namespace albatross
